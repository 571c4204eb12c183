package rdma

import (
	"errors"
	"fmt"
	"sync"
)

// QP sharing/multiplexing. The device model — like the paper's library —
// builds one QP group per connected peer pair, which is O(N²) QP state
// across an N-task fabric. The hyperscale QP-scalability result (arXiv
// 2606.20582) is that this collapses at cluster scale: QP context is NIC
// SRAM, and connection setup time grows with the pair count. QPMux bounds
// a device's QP state to O(K·L) for K slots of L lanes each: logical peer
// channels lease a slot on demand, slots are recycled LRU when idle, and a
// fully pinned pool reports typed contention (ErrQPBusy) instead of
// growing.

// ErrQPBusy is returned by QPMux.Acquire when every slot is pinned by an
// active lease. It is transient contention — not loss, not
// misconfiguration — and the retry layer gives it its own backoff curve
// that does not consume the caller's fault-retry budget (see retryLoop).
var ErrQPBusy = errors.New("rdma: all qp slots leased")

// QPMux multiplexes logical peer channels over a bounded pool of physical
// QP slots on one device. A slot is the full lane group for one peer
// (lanes QPs); Acquire binds a peer to a slot (creating QPs on first use),
// refcounts concurrent leases, and — when the pool is full — evicts the
// least recently used idle slot, closing its QPs via Device.ClosePeer.
type QPMux struct {
	dev   *Device
	slots int
	lanes int

	mu    sync.Mutex
	bound map[string]*muxSlot
	clock uint64 // LRU timestamp source, monotone under mu

	leases    int64
	hits      int64
	misses    int64
	evictions int64
	busy      int64
}

// muxSlot is one peer's binding to a pool slot.
type muxSlot struct {
	peer    string
	chans   []*Channel
	refcnt  int
	lastUse uint64
}

// stale reports whether any of the slot's lane QPs has been closed — the
// binding outlived its physical channels and must not serve new leases.
func (s *muxSlot) stale() bool {
	for _, ch := range s.chans {
		if ch.Down() {
			return true
		}
	}
	return false
}

// NewQPMux builds a mux over dev with the given slot cap and lanes per
// slot. lanes is clamped by the device's QPsPerPeer (the QP group is what
// physically exists per bound peer).
func NewQPMux(dev *Device, slots, lanes int) (*QPMux, error) {
	if dev == nil {
		return nil, fmt.Errorf("rdma: nil device for qp mux: %w", ErrBadConfig)
	}
	if slots < 1 {
		return nil, fmt.Errorf("rdma: qp mux needs ≥1 slot, got %d: %w", slots, ErrBadConfig)
	}
	if lanes < 1 || lanes > dev.cfg.QPsPerPeer {
		return nil, fmt.Errorf("rdma: qp mux lanes %d outside [1,%d]: %w",
			lanes, dev.cfg.QPsPerPeer, ErrBadConfig)
	}
	return &QPMux{dev: dev, slots: slots, lanes: lanes, bound: make(map[string]*muxSlot)}, nil
}

// Slots returns the pool size; Lanes the QP lanes per slot.
func (m *QPMux) Slots() int { return m.slots }
func (m *QPMux) Lanes() int { return m.lanes }

// Acquire leases the slot bound to peer, binding one if needed. A full
// pool evicts the LRU idle slot (refcnt 0 ⇒ no attempt in flight, so its
// QPs hold no live work); with every slot pinned it fails with ErrQPBusy.
func (m *QPMux) Acquire(peer string) (*QPLease, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	if s, ok := m.bound[peer]; ok {
		if s.stale() {
			// The slot's QPs died underneath the binding: Acquire can race
			// recovery's Invalidate→ClosePeer window and rebind fresh QPs
			// that ClosePeer then severs. Handing the dead group to new
			// leases would poison the peer until LRU pressure happened to
			// evict it; drop the binding and rebuild below instead.
			// In-flight leases on the old slot fail fast with ErrClosed and
			// release against the orphaned slot object, so the gauges stay
			// consistent.
			delete(m.bound, peer)
		} else {
			s.refcnt++
			s.lastUse = m.clock
			m.hits++
			m.leases++
			return &QPLease{mux: m, slot: s}, nil
		}
	}
	if len(m.bound) >= m.slots {
		var victim *muxSlot
		for _, s := range m.bound {
			if s.refcnt == 0 && (victim == nil || s.lastUse < victim.lastUse) {
				victim = s
			}
		}
		if victim == nil {
			m.busy++
			return nil, fmt.Errorf("rdma: %s: %d/%d slots pinned acquiring %s: %w",
				m.dev.endpoint, m.slots, m.slots, peer, ErrQPBusy)
		}
		delete(m.bound, victim.peer)
		m.evictions++
		m.dev.ClosePeer(victim.peer)
	}
	chans := make([]*Channel, m.lanes)
	for i := range chans {
		ch, err := m.dev.GetChannel(peer, i)
		if err != nil {
			m.dev.ClosePeer(peer)
			return nil, err
		}
		chans[i] = ch
	}
	m.misses++
	m.leases++
	s := &muxSlot{peer: peer, chans: chans, refcnt: 1, lastUse: m.clock}
	m.bound[peer] = s
	return &QPLease{mux: m, slot: s}, nil
}

// AcquireLanes implements LaneSource over the mux: one lease per attempt.
func (m *QPMux) AcquireLanes(peer string) ([]*Channel, func(), error) {
	l, err := m.Acquire(peer)
	if err != nil {
		return nil, nil, err
	}
	return l.Chans(), l.Release, nil
}

// Invalidate drops peer's binding without touching its QPs. Recovery calls
// it after Device.ClosePeer severed the physical QPs: the dead channels
// must not be handed to new leases, while in-flight holders of the old
// slot fail fast with ErrClosed and release harmlessly.
func (m *QPMux) Invalidate(peer string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.bound, peer)
}

// QPMuxStats snapshots the pool's activity.
type QPMuxStats struct {
	Slots, Lanes int
	// ActiveSlots is the number of peers currently bound; ActiveLeases the
	// total refcount across them (attempts in flight right now).
	ActiveSlots, ActiveLeases int
	// Leases counts Acquire successes; Hits the subset that reused a bound
	// slot; Misses the subset that built QPs; Evictions LRU recycles; Busy
	// the ErrQPBusy failures.
	Leases, Hits, Misses, Evictions, Busy int64
}

// Stats returns a consistent snapshot.
func (m *QPMux) Stats() QPMuxStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := QPMuxStats{
		Slots: m.slots, Lanes: m.lanes,
		ActiveSlots: len(m.bound),
		Leases:      m.leases, Hits: m.hits, Misses: m.misses,
		Evictions: m.evictions, Busy: m.busy,
	}
	for _, s := range m.bound {
		st.ActiveLeases += s.refcnt
	}
	return st
}

// QPLease pins one slot for the duration of a transfer attempt.
type QPLease struct {
	mux  *QPMux
	slot *muxSlot
	once sync.Once
}

// Chans returns the slot's lane channels (index i = QP lane i).
func (l *QPLease) Chans() []*Channel { return l.slot.chans }

// Release unpins the slot; idempotent. Call only after the attempt's
// posted work requests have completed — a refcnt-0 slot is eligible for
// eviction, which closes its QPs.
func (l *QPLease) Release() {
	l.once.Do(func() {
		l.mux.mu.Lock()
		l.slot.refcnt--
		l.mux.mu.Unlock()
	})
}
