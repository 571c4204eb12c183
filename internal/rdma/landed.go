package rdma

import (
	"sync"
	"sync/atomic"
	"time"
)

// landedSignal is a device's landed-write signal: a sequence bumped whenever
// a one-sided write, tagged lossy write or atomic lands in the device's
// registered memory, and bumping it wakes every goroutine parked on it. It is
// the emulator's analogue of a monitor/UMWAIT armed on the cache lines a
// poller watches. The one-sided protocols do not change: the sender posts no
// extra verb, and the receiver still confirms by reading its flag, metadata,
// ack or version word — the signal only says "something landed, look again".
//
// Waiters read the sequence before they check their word and park against
// that reading, so a write landing between the check and the park returns
// the park at once instead of being lost.
type landedSignal struct {
	seq     atomic.Uint64
	waiters atomic.Int32

	mu sync.Mutex
	ch chan struct{} // closed (and dropped) by a bump that finds waiters
}

// bump advances the sequence and releases every parked waiter.
func (s *landedSignal) bump() {
	s.seq.Add(1)
	if s.waiters.Load() == 0 {
		return
	}
	s.mu.Lock()
	if s.ch != nil {
		close(s.ch)
		s.ch = nil
	}
	s.mu.Unlock()
}

// wait parks until the sequence moves past seq or max elapses. The waiter
// count is raised before the sequence is re-read, and a bump raises the
// sequence before it reads the count, so either the bump sees this waiter
// and closes its channel or this waiter sees the bump.
func (s *landedSignal) wait(seq uint64, max time.Duration) {
	s.waiters.Add(1)
	defer s.waiters.Add(-1)
	s.mu.Lock()
	if s.ch == nil {
		s.ch = make(chan struct{})
	}
	ch := s.ch
	s.mu.Unlock()
	if s.seq.Load() != seq {
		return
	}
	t := parkTimers.Get().(*time.Timer)
	t.Reset(max)
	select {
	case <-ch:
	case <-t.C:
	}
	if !t.Stop() {
		// Fired: drain the tick unless the select already took it, so the
		// pooled timer's next Reset starts clean.
		select {
		case <-t.C:
		default:
		}
	}
	parkTimers.Put(t)
}

// parkTimers recycles the parks' bound timers: a poller parks on every miss,
// and a timer per park would be an allocation per handoff. Pooled timers are
// always stopped and drained.
var parkTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// LandedSeq reads the device's landed-write sequence. A poller reads it
// before checking the word a peer writes and passes the reading to
// WaitLanded, so no write landing in between can be missed.
func (d *Device) LandedSeq() uint64 { return d.landed.seq.Load() }

// WaitLanded parks the caller until a write lands in the device's registered
// memory after the LandedSeq reading seq was taken, WakeLanded, ClosePeer or
// Close is called, or max elapses — whichever comes first. max is the
// poller's backoff, kept only as an upper bound: a park never outlasts the
// sleep it replaces, and usually ends when the data lands.
func (d *Device) WaitLanded(seq uint64, max time.Duration) { d.landed.wait(seq, max) }

// WakeLanded releases every goroutine parked in WaitLanded as if a write had
// landed. Aborts and local state changes a poller also waits on (a reader
// count dropping to zero, a message arriving in a mailbox) call it; parked
// pollers re-check their words and park again if nothing they watch changed.
func (d *Device) WakeLanded() { d.landed.bump() }
