package rdma

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Per-tensor selective retransmit over a lossy fabric.
//
// The paper's protocols assume reliable-connected QPs: a write either lands
// or fails with an error, so recovery is retry-the-whole-transfer. At
// hyperscale that is the wrong contract twice over (arXiv 2606.20582):
// RC connection state is O(N²), and connection-level go-back-N replays
// everything behind one lost packet. This file keeps the §3.2 slot shape
// but makes loss recovery communication-semantic-aware: every payload
// chunk carries a (tensor-id, chunk-seq, epoch) header, the receiver
// tracks per-chunk arrival and NACKs exactly the missing set, and the
// sender retransmits only those chunks — never the connection, never the
// tensor, and never into an iteration that has moved on (the epoch guard
// discards stale chunks atomically with respect to re-arming).
//
// Wire discipline: only tagged *chunk* writes get datagram semantics
// (silently droppable via Hooks.Lossy/ChunkDrop). Everything else — the
// epoch arm, the retransmit descriptor, NACKs, completion acks, and all
// legacy protocols — is a thin reliable control plane: those writes keep
// error-based completion, and each control word moves as its own 8-byte
// write (a single atomic store in orderedCopy) posted in order on one QP,
// with the validity word (epoch) last. A reader that observes the epoch
// therefore observes every word written before it in that batch.
//
// Lossy slot layout, after the payload of a static slot:
//
//	off                 payload            (alignUp(payloadSize) bytes)
//	+alignUp(P)         flag               (legacy tail word, unused here)
//	+alignUp(P)+8       epoch guard        (armed by sender before chunks)
//	+alignUp(P)+16      arrival[MaxStripes] (chunk i's word = epoch when landed)
//	+alignUp(P)+144     RetransmitDesc     (32 bytes, epoch word last)

const (
	// retransmitDescWireSize / nackDescWireSize are the fixed encodings of
	// the two control headers, 4 words each with the epoch word last.
	retransmitDescWireSize = 32
	nackDescWireSize       = 32

	// lossyArrivalWords is the arrival-stamp table length: one word per
	// possible chunk (chunk counts are clamped to MaxStripes).
	lossyArrivalWords = MaxStripes

	// LossyTailSize is the metadata appended to a lossy slot's payload:
	// flag + guard + arrival table + descriptor.
	LossyTailSize = FlagWordSize + 8 + lossyArrivalWords*8 + retransmitDescWireSize
)

// LossySlotSize returns the region bytes needed for a lossy static slot
// holding payloadSize payload bytes.
func LossySlotSize(payloadSize int) int {
	return alignUp(payloadSize) + LossyTailSize
}

// lossySlotLayout holds a slot's absolute control-word offsets.
type lossySlotLayout struct {
	flag, guard, arrival, desc int
}

func lossyLayout(off, payloadSize int) lossySlotLayout {
	flag := off + alignUp(payloadSize)
	return lossySlotLayout{
		flag:    flag,
		guard:   flag + FlagWordSize,
		arrival: flag + FlagWordSize + 8,
		desc:    flag + FlagWordSize + 8 + lossyArrivalWords*8,
	}
}

// ChunkTag is the semantic header carried by every tagged chunk write:
// which tensor, which chunk of it, and which send epoch.
type ChunkTag struct {
	TensorID uint64
	Seq      uint32
	Epoch    uint64
}

// tagKind distinguishes the two tagged write flavors.
type tagKind uint8

const (
	tagChunk tagKind = iota
	tagArm
)

// writeTag rides a workRequest through the QP into executeTagged.
type writeTag struct {
	kind       tagKind
	tag        ChunkTag
	guardOff   int // absolute offset of the slot's epoch guard word
	arrivalOff int // absolute offset of arrival[0]
}

// RetransmitDesc announces one send epoch to the receiver: the tensor, its
// chunk count and size, and the epoch. The epoch is the last word on the
// wire — it doubles as the descriptor's validity flag.
type RetransmitDesc struct {
	TensorID    uint64
	Chunks      uint32
	PayloadSize uint64
	Epoch       uint64
}

// Marshal encodes the descriptor (tensorID u64 | chunks u32 | pad u32 |
// payloadSize u64 | epoch u64, all LE).
func (d RetransmitDesc) Marshal() []byte {
	buf := make([]byte, retransmitDescWireSize)
	binary.LittleEndian.PutUint64(buf, d.TensorID)
	binary.LittleEndian.PutUint32(buf[8:], d.Chunks)
	binary.LittleEndian.PutUint64(buf[16:], d.PayloadSize)
	binary.LittleEndian.PutUint64(buf[24:], d.Epoch)
	return buf
}

// UnmarshalRetransmitDesc decodes a descriptor produced by Marshal. It is
// total on arbitrary bytes: only length is validated here — semantic
// checks (tensor identity, chunk bounds, size) belong to the receiver,
// which knows what it expects.
func UnmarshalRetransmitDesc(buf []byte) (RetransmitDesc, error) {
	if len(buf) < retransmitDescWireSize {
		return RetransmitDesc{}, fmt.Errorf("rdma: short retransmit descriptor (%d bytes)", len(buf))
	}
	return RetransmitDesc{
		TensorID:    binary.LittleEndian.Uint64(buf),
		Chunks:      binary.LittleEndian.Uint32(buf[8:]),
		PayloadSize: binary.LittleEndian.Uint64(buf[16:]),
		Epoch:       binary.LittleEndian.Uint64(buf[24:]),
	}, nil
}

// NackDesc is the receiver→sender control header: the missing-chunk bitmap
// for one epoch of one tensor. Missing == 0 is the completion ack. Seq
// increments per posted NACK so the sender can tell a re-NACK (its
// retransmit was lost too) from the one it already served. The epoch is
// again the last word on the wire.
type NackDesc struct {
	TensorID uint64
	Missing  uint64 // bit i set = chunk i missing; MaxStripes ≤ 64
	Seq      uint64
	Epoch    uint64
}

// Marshal encodes the header (tensorID u64 | missing u64 | seq u64 |
// epoch u64, all LE).
func (d NackDesc) Marshal() []byte {
	buf := make([]byte, nackDescWireSize)
	binary.LittleEndian.PutUint64(buf, d.TensorID)
	binary.LittleEndian.PutUint64(buf[8:], d.Missing)
	binary.LittleEndian.PutUint64(buf[16:], d.Seq)
	binary.LittleEndian.PutUint64(buf[24:], d.Epoch)
	return buf
}

// UnmarshalNackDesc decodes a header produced by Marshal; total on
// arbitrary bytes of sufficient length.
func UnmarshalNackDesc(buf []byte) (NackDesc, error) {
	if len(buf) < nackDescWireSize {
		return NackDesc{}, fmt.Errorf("rdma: short nack descriptor (%d bytes)", len(buf))
	}
	return NackDesc{
		TensorID: binary.LittleEndian.Uint64(buf),
		Missing:  binary.LittleEndian.Uint64(buf[8:]),
		Seq:      binary.LittleEndian.Uint64(buf[16:]),
		Epoch:    binary.LittleEndian.Uint64(buf[24:]),
	}, nil
}

// --- epoch-guarded placement (receiver-side memory) ---

// armEpoch publishes the slot's live epoch. Serialized against placeChunk
// by tagMu: once armEpoch(e+1) returns, no chunk of epoch ≤ e can land.
func (m *MemRegion) armEpoch(guardOff int, epoch uint64) error {
	if guardOff < 0 || guardOff%8 != 0 || guardOff+8 > len(m.data) {
		return fmt.Errorf("rdma: epoch guard at %d of %d-byte region: %w",
			guardOff, len(m.data), ErrBounds)
	}
	m.tagMu.Lock()
	atomicStore64(m.data, guardOff, epoch)
	m.tagMu.Unlock()
	return nil
}

// placeChunk lands one tagged chunk iff the slot's guard still holds the
// chunk's epoch; a stale chunk is discarded whole (returns false). The
// guard check, the payload stores, and the arrival stamp happen under
// tagMu, so placement is atomic with respect to re-arming — the invariant
// the mid-abort isolation test pins. Payload words move with atomic
// stores: concurrent duplicate retransmits of the same chunk write the
// same bytes, and pollers may read the region while chunks land.
func (m *MemRegion) placeChunk(t *writeTag, dstOff int, src []byte) (bool, error) {
	if int(t.tag.Seq) >= lossyArrivalWords {
		return false, fmt.Errorf("rdma: chunk seq %d outside arrival table: %w", t.tag.Seq, ErrBounds)
	}
	arrOff := t.arrivalOff + 8*int(t.tag.Seq)
	if t.guardOff < 0 || t.guardOff%8 != 0 || t.guardOff+8 > len(m.data) ||
		arrOff < 0 || arrOff%8 != 0 || arrOff+8 > len(m.data) {
		return false, fmt.Errorf("rdma: lossy control words [%d,%d] of %d-byte region: %w",
			t.guardOff, arrOff, len(m.data), ErrBounds)
	}
	if dstOff < 0 || dstOff%8 != 0 || len(src)%8 != 0 || dstOff+len(src) > len(m.data) {
		return false, fmt.Errorf("rdma: lossy chunk [%d,+%d) of %d-byte region: %w",
			dstOff, len(src), len(m.data), ErrBounds)
	}
	m.tagMu.Lock()
	defer m.tagMu.Unlock()
	if atomicLoad64(m.data, t.guardOff) != t.tag.Epoch {
		return false, nil
	}
	for o := 0; o+8 <= len(src); o += 8 {
		atomicStore64(m.data, dstOff+o, atomicLoad64(src, o))
	}
	atomicStore64(m.data, arrOff, t.tag.Epoch)
	return true, nil
}

// --- tagged posting (channel-side) ---

// --- sender ---

// Sender scratch layout: one 64-byte region per LossySender.
// [0,32) is the inbound NackDesc the receiver writes; [32,64) stages the
// outbound RetransmitDesc words.
const (
	nackTensorOff    = 0
	nackMissingOff   = 8
	nackSeqOff       = 16
	nackEpochOff     = 24
	descStagingOff   = 32
	lossyScratchSize = 64
)

// LossySender drives the lossy protocol for one static edge. It embeds the
// StaticSender (same staging buffer, same slot descriptor — the receiver's
// region is just LossySlotSize instead of StaticSlotSize) and replaces the
// flag-write contract with epoch announce → chunk blast → NACK-driven
// selective retransmit → completion ack.
type LossySender struct {
	*StaticSender
	tensorID uint64
	scratch  *MemRegion
	lay      lossySlotLayout
	epoch    uint64 // owned by the sending goroutine (edges send serially)

	retransmits atomic.Int64 // chunks selectively re-sent
	nacksSeen   atomic.Int64 // NACKs acted upon
	announces   atomic.Int64 // epoch announcements (whole-tensor sends)
	sends       atomic.Int64 // SendRetry-level operations
}

// NewLossySender wraps a StaticSender for the lossy protocol. The remote
// slot (desc) must have been allocated with LossySlotSize.
func NewLossySender(s *StaticSender, tensorID uint64) (*LossySender, error) {
	if uint64(s.desc.Off+LossySlotSize(s.desc.PayloadSize)) > s.desc.Region.Size {
		return nil, fmt.Errorf("rdma: remote slot [%d,+%d) of %d bytes is not a lossy slot: %w",
			s.desc.Off, LossySlotSize(s.desc.PayloadSize), s.desc.Region.Size, ErrBounds)
	}
	scratch, err := s.mr.dev.AllocateMemRegion(lossyScratchSize)
	if err != nil {
		return nil, err
	}
	return &LossySender{
		StaticSender: s,
		tensorID:     tensorID,
		scratch:      scratch,
		lay:          lossyLayout(s.desc.Off, s.desc.PayloadSize),
	}, nil
}

// Close releases the sender's scratch region.
func (s *LossySender) Close() { s.mr.dev.FreeMemRegion(s.scratch) }

// NackScratch returns the address of the sender's inbound NACK block; the
// receiver needs it before it can NACK or ack.
func (s *LossySender) NackScratch() DynSlotDesc {
	return DynSlotDesc{Region: s.scratch.Descriptor(), Off: 0}
}

// TensorID returns the edge's semantic tensor id.
func (s *LossySender) TensorID() uint64 { return s.tensorID }

// Retransmits reports chunks selectively re-sent; Nacks the NACKs served;
// FullResends how many epoch announcements exceeded one per send — i.e.
// whole-tensor replays, the go-back-N behavior selective retransmit
// exists to avoid. Tests assert it stays zero under chunk loss.
func (s *LossySender) Retransmits() int64 { return s.retransmits.Load() }
func (s *LossySender) Nacks() int64       { return s.nacksSeen.Load() }
func (s *LossySender) FullResends() int64 { return s.announces.Load() - s.sends.Load() }

// SendRetry transmits the staging buffer over the lossy protocol, blocking
// until the receiver acked complete arrival. Chunk loss is recovered
// in-protocol (selective retransmit); only control-plane failures consume
// the retry budget, and each such retry announces a fresh epoch.
func (s *LossySender) SendRetry(opts TransferOpts) error {
	return s.lossySendRetry(nil, opts)
}

// SendRetryFrom is SendRetry for an unstaged payload.
func (s *LossySender) SendRetryFrom(payload []byte, opts TransferOpts) error {
	if err := s.checkPayload(payload); err != nil {
		return err
	}
	return s.lossySendRetry(payload, opts)
}

func (s *LossySender) lossySendRetry(payload []byte, opts TransferOpts) error {
	o := opts.withDefaults()
	s.sends.Add(1)
	return retryLoop(o, opLabel{"lossy send", s.desc.PayloadSize, s.ch.Remote()}, s.src,
		func(lanes []*Channel, deadline time.Time) error {
			if payload != nil {
				copy(s.Buffer(), payload)
			}
			return s.attempt(lanes, o, deadline)
		})
}

// attempt is one epoch: arm + announce, blast every chunk, then serve
// NACKs until the completion ack or the call's deadline.
func (s *LossySender) attempt(lanes []*Channel, o TransferOpts, deadline time.Time) error {
	s.epoch++
	e := s.epoch
	s.announces.Add(1)
	x := s.chunks(lanes, e, o)
	if err := s.announce(lanes[0], e, len(x.chunks)); err != nil {
		return err
	}
	x.post(fullMask(len(x.chunks)), false)
	return s.awaitAck(x, e, o, deadline)
}

// chunks is the epoch's engine plan: the aligned payload cut by
// StripeDesc.Chunks at the requested stripe count (also on one lane — the
// arrival table makes every chunk separately recoverable), each chunk a
// tagged write of epoch e. The lossy policy posts it without a join or
// commit word: a chunk's fate is learned from the NACK protocol, not from
// its completion, so a failed post is just loss.
func (s *LossySender) chunks(lanes []*Channel, e uint64, o TransferOpts) *xfer {
	x := &xfer{
		lanes: lanes, dir: OpWrite,
		local: s.mr, localOff: s.off, remote: s.desc.Region, remoteOff: s.desc.Off,
		tag: &writeTag{kind: tagChunk, tag: ChunkTag{TensorID: s.tensorID, Epoch: e},
			guardOff: s.lay.guard, arrivalOff: s.lay.arrival},
		onStripe: o.OnStripe, onDoorbell: o.OnDoorbell,
	}
	return x.split(alignUp(s.desc.PayloadSize), o.Stripes)
}

// announce arms the receiver's epoch guard, then writes the retransmit
// descriptor, one word per write in order with the epoch word last, all on
// one QP, waiting for each. After it returns, the receiver
// accepts epoch-e chunks and discards everything older — which is why the
// chunk blast must not start before the arm completed: chunks racing ahead
// of the arm on other QPs would be discarded as stale.
func (s *LossySender) announce(ch *Channel, e uint64, chunks int) error {
	d := RetransmitDesc{
		TensorID: s.tensorID, Chunks: uint32(chunks),
		PayloadSize: uint64(s.desc.PayloadSize), Epoch: e,
	}
	b := d.Marshal()
	// Atomic staging stores: a previous announce's writes may still be
	// draining off this scratch.
	for i := 0; i < retransmitDescWireSize/8; i++ {
		s.scratch.StoreWord(descStagingOff+8*i, binary.LittleEndian.Uint64(b[8*i:]))
	}
	// The arm is a tagged one-word write: the epoch travels in the tag, the
	// staged word only keeps the bounds checks whole.
	arm := wordBatch(ch, s.scratch, descStagingOff, s.desc.Region, s.lay.guard, 1)
	arm.tag = &writeTag{kind: tagArm, tag: ChunkTag{Epoch: e}, guardOff: s.lay.guard}
	err := arm.run()
	if err == nil {
		err = wordBatch(ch, s.scratch, descStagingOff, s.desc.Region, s.lay.desc,
			retransmitDescWireSize/8).run()
	}
	if err != nil {
		return fmt.Errorf("rdma: lossy announce epoch %d to %s: %w", e, s.ch.Remote(), err)
	}
	return nil
}

// awaitAck waits for receiver feedback in the sender scratch: each new
// NACK seq either completes the epoch (missing == 0) or names the chunks
// the plan re-posts. The epoch word is read first; since the receiver
// writes each NACK's words in order with the epoch last and keeps at most
// one NACK write in flight, a matching epoch means seq and missing belong
// to this epoch. The call's deadline makes total loss (a blackholed tensor)
// fail typed and bounded: ErrTimeout, fatal in retryLoop.
func (s *LossySender) awaitAck(x *xfer, e uint64, o TransferOpts, deadline time.Time) error {
	var lastSeq uint64
	return waitCond(s.scratch.dev, o, deadline, "lossy send completion ack", func() bool {
		if s.scratch.LoadWord(nackEpochOff) != e {
			return false
		}
		seq := s.scratch.LoadWord(nackSeqOff)
		if seq == lastSeq {
			return false
		}
		lastSeq = seq
		missing := s.scratch.LoadWord(nackMissingOff) & fullMask(len(x.chunks))
		if missing == 0 {
			return true
		}
		n := bits.OnesCount64(missing)
		s.nacksSeen.Add(1)
		s.retransmits.Add(int64(n))
		if o.OnRetransmit != nil {
			o.OnRetransmit(n)
		}
		x.post(missing, false)
		return false
	})
}

// --- receiver ---

// defaultNackInterval paces receiver NACKs — one goes out once no chunk of
// the epoch has landed for this long: long enough for in-flight chunks to
// land (spurious NACKs cost duplicate retransmits, which are harmless but
// noisy), short enough to keep loss recovery well under a training step.
const defaultNackInterval = 500 * time.Microsecond

// LossyReceiverConfig tunes a LossyReceiver.
type LossyReceiverConfig struct {
	// NackInterval paces NACK (and ack re-send) posting; 0 selects the
	// default.
	NackInterval time.Duration
	// OnNack, if non-nil, observes each posted NACK with its missing-chunk
	// count (metrics hook).
	OnNack func(missing int)
	// Source, when set, supplies the channel for each NACK/ack post (QP
	// mux mode); otherwise the constructor channel is used.
	Source LaneSource
}

// LossyReceiver owns one lossy static slot. Poll drives the whole receive
// side: it reads the announced descriptor, scans the arrival table, posts
// NACKs for missing chunks, and posts the completion ack once the epoch's
// payload fully landed.
type LossyReceiver struct {
	mr          *MemRegion
	off         int
	payloadSize int
	tensorID    uint64
	lay         lossySlotLayout
	ch          *Channel
	src         LaneSource // NACK/ack lanes: ch, or cfg.Source's lease
	staging     *MemRegion // outbound NackDesc words
	interval    time.Duration
	onNack      func(int)

	mu            sync.Mutex
	senderScratch DynSlotDesc
	haveScratch   bool
	curEpoch      uint64
	chunks        int
	complete      bool
	consumed      uint64 // last epoch consumed by the application
	lastPost      time.Time
	missing       uint64 // missing-chunk mask at the last poll
	seq           uint64

	// inflight serializes NACK/ack posting: at most one control batch in
	// flight, so the sender scratch words always settle in posting order
	// (see awaitAck's torn-read argument). renack re-triggers a post whose
	// batch failed; needAck re-posts the completion ack until it lands.
	inflight  atomic.Bool
	renack    atomic.Bool
	needAck   atomic.Uint64
	nacksSent atomic.Int64
}

// NewLossyReceiver claims [off, off+LossySlotSize(payloadSize)) of mr as a
// lossy receive slot. ch reaches the edge's sender; it is used for control
// posts unless cfg.Source overrides per attempt.
func NewLossyReceiver(ch *Channel, mr *MemRegion, off, payloadSize int,
	tensorID uint64, cfg LossyReceiverConfig) (*LossyReceiver, error) {
	if off%8 != 0 {
		return nil, fmt.Errorf("rdma: lossy slot offset %d not 8-aligned: %w", off, ErrBadConfig)
	}
	if _, err := mr.Slice(off, LossySlotSize(payloadSize)); err != nil {
		return nil, err
	}
	staging, err := mr.dev.AllocateMemRegion(nackDescWireSize)
	if err != nil {
		return nil, err
	}
	if cfg.NackInterval <= 0 {
		cfg.NackInterval = defaultNackInterval
	}
	if cfg.Source == nil {
		cfg.Source = FixedLanes{ch}
	}
	r := &LossyReceiver{
		mr: mr, off: off, payloadSize: payloadSize, tensorID: tensorID,
		lay: lossyLayout(off, payloadSize), ch: ch, src: cfg.Source,
		staging: staging, interval: cfg.NackInterval, onNack: cfg.OnNack,
	}
	mr.ClearFlag(r.lay.guard)
	mr.ClearFlag(r.lay.desc + 24)
	return r, nil
}

// Close releases the receiver's NACK staging region.
func (r *LossyReceiver) Close() { r.mr.dev.FreeMemRegion(r.staging) }

// Desc returns the slot address for the sender — the same StaticSlotDesc
// shape as the lossless protocol, so address distribution is unchanged;
// the region is simply LossySlotSize large.
func (r *LossyReceiver) Desc() StaticSlotDesc {
	return StaticSlotDesc{Region: r.mr.Descriptor(), Off: r.off, PayloadSize: r.payloadSize}
}

// SetSenderScratch installs the sender's NACK block address; until it is
// known the receiver cannot NACK (it just waits, and the sender's blast
// either fully lands or the edge times out).
func (r *LossyReceiver) SetSenderScratch(d DynSlotDesc) {
	r.mu.Lock()
	r.senderScratch = d
	r.haveScratch = true
	r.mu.Unlock()
}

// NacksSent reports control NACKs posted (excluding completion acks).
func (r *LossyReceiver) NacksSent() int64 { return r.nacksSent.Load() }

// Poll advances the receive protocol and reports whether a complete,
// unconsumed tensor is available. It is the lossy analogue of
// StaticReceiver.Poll and is driven from the same scheduler loop.
func (r *LossyReceiver) Poll() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pumpAckLocked()
	e := r.mr.LoadWord(r.lay.desc + 24)
	if e == 0 || e == r.consumed {
		return false
	}
	if e != r.curEpoch {
		var buf [retransmitDescWireSize]byte
		for i := 0; i < retransmitDescWireSize/8; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], r.mr.LoadWord(r.lay.desc+8*i))
		}
		d, err := UnmarshalRetransmitDesc(buf[:])
		if err != nil || d.Epoch != e || d.TensorID != r.tensorID ||
			d.Chunks == 0 || int(d.Chunks) > lossyArrivalWords ||
			d.PayloadSize != uint64(r.payloadSize) {
			// Torn or foreign descriptor; the epoch word lands last, so a
			// later poll sees it whole.
			return false
		}
		r.curEpoch = e
		r.chunks = int(d.Chunks)
		r.complete = false
		r.missing = fullMask(r.chunks)
		r.lastPost = time.Now() // grace before the first NACK
	}
	if r.complete {
		return true
	}
	var missing uint64
	for i := 0; i < r.chunks; i++ {
		if r.mr.LoadWord(r.lay.arrival+8*i) != e {
			missing |= uint64(1) << uint(i)
		}
	}
	if missing == 0 {
		// Disarm the guard before exposing the payload: a duplicate
		// retransmit still in flight (the sender served a re-NACK whose
		// first answer wasn't lost after all) must be discarded at the
		// guard, not re-stored into memory the consumer is now reading.
		// The sender re-arms at the next epoch's announce.
		_ = r.mr.armEpoch(r.lay.guard, 0)
		r.complete = true
		r.needAck.Store(e)
		r.lastPost = time.Time{} // ack immediately
		r.pumpAckLocked()
		return true
	}
	if missing != r.missing {
		// A chunk landed since the last poll: the epoch is still arriving,
		// so restart the grace. NACKs pace from the last arrival, not from
		// the announce — a transfer whose chunks trickle in (a cold or
		// descheduled sender) is slow, not lossy, and NACKing it would
		// only buy duplicate retransmits.
		r.missing = missing
		r.lastPost = time.Now()
	}
	if r.renack.Swap(false) || time.Since(r.lastPost) >= r.interval {
		r.lastPost = time.Now()
		if r.onNack != nil {
			r.onNack(bits.OnesCount64(missing))
		}
		r.nacksSent.Add(1)
		r.postNack(missing, e)
	}
	return false
}

// pumpAck posts a due completion ack immediately, bypassing the NACK
// pacing interval. postNack's completion callback calls it when an ack was
// deferred behind an in-flight control batch.
func (r *LossyReceiver) pumpAck() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.needAck.Load() == 0 {
		return
	}
	r.renack.Store(true)
	r.pumpAckLocked()
}

// pumpAckLocked re-posts the completion ack until its write landed; the
// sender blocks on it, so an ack lost to a failed post must be retried.
func (r *LossyReceiver) pumpAckLocked() {
	e := r.needAck.Load()
	if e == 0 {
		return
	}
	if r.renack.Swap(false) || r.lastPost.IsZero() || time.Since(r.lastPost) >= r.interval {
		r.lastPost = time.Now()
		r.postNack(0, e)
	}
}

// postNack stages and posts one NackDesc (missing == 0 is the completion
// ack): four word writes in order on one QP, epoch last. At most one batch
// is in flight (inflight CAS) — see the struct comment for why that
// ordering discipline is what makes the sender's scratch reads sound.
func (r *LossyReceiver) postNack(missing, e uint64) {
	if !r.haveScratch {
		return
	}
	if !r.inflight.CompareAndSwap(false, true) {
		return
	}
	r.seq++
	d := NackDesc{TensorID: r.tensorID, Missing: missing, Seq: r.seq, Epoch: e}
	b := d.Marshal()
	for i := 0; i < nackDescWireSize/8; i++ {
		r.staging.StoreWord(8*i, binary.LittleEndian.Uint64(b[8*i:]))
	}
	lanes, release, err := r.src.AcquireLanes(r.ch.Remote())
	if err != nil {
		r.inflight.Store(false)
		r.renack.Store(true)
		return
	}
	acked := missing == 0
	words := wordBatch(lanes[0], r.staging, 0, r.senderScratch.Region, r.senderScratch.Off,
		nackDescWireSize/8)
	words.start(func(err error) {
		if err == nil && acked {
			r.needAck.CompareAndSwap(e, 0)
		}
		if err != nil {
			r.renack.Store(true)
		}
		release()
		r.inflight.Store(false)
		// If an ack became due while this batch pinned the in-flight slot
		// (Poll's post was silently skipped by the CAS), nothing will pump it
		// again once the scheduler stops polling a completed edge — so pump
		// from here. A goroutine, not an inline post: this callback runs in
		// completion context.
		if r.needAck.Load() != 0 {
			go r.pumpAck()
		}
	})
}

// Payload returns the slot's payload bytes; valid after Poll returned true.
func (r *LossyReceiver) Payload() []byte {
	return r.mr.Bytes()[r.off : r.off+r.payloadSize]
}

// Consume marks the current epoch consumed, so Poll reports false until
// the next epoch is announced. The completion ack keeps re-posting until
// it lands even after Consume (pumpAckLocked), so the sender always
// unblocks.
func (r *LossyReceiver) Consume() {
	r.mu.Lock()
	if r.complete {
		r.consumed = r.curEpoch
		r.complete = false
	}
	r.pumpAckLocked()
	r.mu.Unlock()
}

// Wait blocks until a complete tensor arrived (Poll true) or the opts
// deadline expires, like StaticReceiver.Wait.
func (r *LossyReceiver) Wait(opts TransferOpts) error {
	return waitCond(r.mr.dev, opts, opts.deadline(), "lossy recv", r.Poll)
}
