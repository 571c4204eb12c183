package rdma

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The transfer engine. Every payload protocol in this package follows one
// pattern (§3.2/§3.3): one-sided payload writes or reads, then a single word
// — a flag, a version or an ack — that says the payload has landed. The
// engine runs that pattern the same way for every client:
//
//   - plan: StripeDesc.Chunks cuts the payload; chunk i rides lane i%L.
//   - lanes: a LaneSource supplies them per attempt — FixedLanes for
//     channels cached at setup (AddLane), a QPMux lease for muxed edges.
//   - doorbell: each lane's chunks enter its send queue as one batch. A
//     staging hook instead copies and posts in rounds of one chunk per lane,
//     so the wire drains round r while round r+1 is copied (the pipelined
//     RDMA.cp path).
//   - join: the plan's join fires once every posted chunk completed, also
//     on error, so no chunk still reads the source when a caller returns or
//     restages it.
//   - commit: the commit word then goes out on lane 0. A set word therefore
//     means the whole payload landed: the emulator, like an RC QP, posts a
//     write's completion only after the remote memory was written.
//   - recovery: either a whole-attempt retry under one retryLoop (static,
//     Dyn, coalesced, weight publication), or the lossy policy —
//     tagged chunks with no join, re-posted by NACK mask through the same
//     per-lane post (LossySender).

// LaneSource supplies the channels for one transfer attempt. Senders and
// receivers acquire their lanes per attempt and release them when the
// attempt's completions have drained, so an idle muxed edge pins no QP slot
// between iterations. QPMux and FixedLanes implement it; tests may
// substitute fakes.
type LaneSource interface {
	// AcquireLanes returns ≥1 channels to peer plus a release func. Every
	// returned channel targets peer; index i is QP lane i. Release must be
	// called exactly once, after the attempt's posted work completed.
	AcquireLanes(peer string) ([]*Channel, func(), error)
}

// FixedLanes is a LaneSource over channels resolved once at setup: no
// lease, nothing to release.
type FixedLanes []*Channel

// AcquireLanes implements LaneSource.
func (f FixedLanes) AcquireLanes(string) ([]*Channel, func(), error) { return f, noRelease, nil }

func noRelease() {}

// laneSet is an endpoint's lane source: FixedLanes of its constructor
// channel (plus AddLane extras), or a lease pool set by SetLaneSource.
type laneSet struct{ src LaneSource }

// SetLaneSource routes the endpoint's transfers through a per-attempt lane
// source (see LaneSource) instead of its fixed lanes.
func (l *laneSet) SetLaneSource(src LaneSource) { l.src = src }

// addLane appends ch to the fixed lanes (AddLane of the static sender and
// the Dyn receiver). An edge whose lanes come from a lease takes none.
func (l *laneSet) addLane(peer string, ch *Channel) error {
	lanes, ok := l.src.(FixedLanes)
	if !ok {
		return fmt.Errorf("rdma: lane added to an edge with a lane source: %w", ErrBadConfig)
	}
	if ch.Remote() != peer {
		return fmt.Errorf("rdma: lane to %s on edge to %s: %w", ch.Remote(), peer, ErrBadConfig)
	}
	if len(lanes) >= MaxStripes {
		return fmt.Errorf("rdma: lane count exceeds MaxStripes %d: %w", MaxStripes, ErrBadConfig)
	}
	l.src = append(lanes, ch)
	return nil
}

// LaneCount is the one lane-count rule: a transfer asked to stripe over
// `stripes` lanes gets min(stripes, QPsPerPeer, MaxStripes) of them, at
// least 1. Direct edges, mux slots and the weight publisher all size their
// lane sets with it, so no two lanes of a transfer share a QP.
func (d *Device) LaneCount(stripes int) int {
	return max(1, min(stripes, d.cfg.QPsPerPeer, MaxStripes))
}

// Lanes returns n channels to peer on the distinct QPs first, first+1, …
// (mod QPsPerPeer), as a fixed lane set. n is clamped by LaneCount.
func (d *Device) Lanes(peer string, first, n int) (FixedLanes, error) {
	lanes := make(FixedLanes, d.LaneCount(n))
	for i := range lanes {
		ch, err := d.GetChannel(peer, (first+i)%d.cfg.QPsPerPeer)
		if err != nil {
			return nil, err
		}
		lanes[i] = ch
	}
	return lanes, nil
}

// xfer is one planned transfer: chunks of [localOff, +size) moved to or
// from [remoteOff, +size) over lanes, then the commit word. It is built per
// attempt — a duplicated completion of one attempt must never reach the
// next — and carries the chunk plan and the join inline.
type xfer struct {
	lanes     []*Channel
	dir       Op
	local     *MemRegion
	localOff  int
	remote    RemoteRegion
	remoteOff int
	// commit is the word written on lane 0 after the join; a nil Local
	// means none.
	commit MemcpyReq
	// fused marks a commit word that is the payload's own tail at both ends
	// (a static slot's flag): a one-chunk plan then posts payload and word
	// as one ascending write — the §3.2 single write.
	fused bool
	// stage, when non-nil, is copied into local chunk by chunk, each just
	// before that chunk is posted.
	stage []byte
	// tag, when non-nil, makes every chunk a tagged lossy write (Seq is the
	// chunk index).
	tag        *writeTag
	onStripe   func(lane, bytes int)
	onDoorbell func(lane, chunks int)

	chunks []StripeChunk
	buf    [MaxStripes]StripeChunk
	// The join: pending counts chunks still out; seen drops a duplicated
	// completion, so it cannot make the join fire before every chunk truly
	// landed; err keeps the first failure.
	pending atomic.Int32
	seen    [MaxStripes]atomic.Bool
	mu      sync.Mutex
	err     error // after the join: the outcome run returns

	done  func(error) // nil: run's caller waits on wg
	wg    sync.WaitGroup
	fired atomic.Bool
}

// slotWrite plans the write of a slot: size payload bytes at off, and the
// tail word at off+alignUp(size) as the fused commit word (the §3.2 flag).
func slotWrite(lanes []*Channel, local *MemRegion, localOff int, remote RemoteRegion,
	remoteOff, size, stripes int) *xfer {
	tail := alignUp(size)
	x := &xfer{
		lanes: lanes, dir: OpWrite, local: local, localOff: localOff,
		remote: remote, remoteOff: remoteOff, fused: true,
		commit: MemcpyReq{Local: local, LocalOff: localOff + tail, Remote: remote,
			RemoteOff: remoteOff + tail, Size: FlagWordSize},
	}
	return x.cut(size, stripes)
}

// runRearming runs a sender's slot write whose flag arms the receiver's
// reuse ack. A failed write never reached the receiver (faults strike before
// memory writes), so no ack will arrive for it: the ack word the plan
// cleared is re-armed, or every later attempt would see ErrBusy.
func runRearming(x *xfer, err error, ack *MemRegion, ackOff int) error {
	if err == nil {
		if err = x.run(); err != nil {
			ack.SetFlagLocal(ackOff)
		}
	}
	return err
}

// split sets the chunk plan: StripeDesc.Chunks of size bytes at the
// stripe count, kept in the plan's own buffer.
func (x *xfer) split(size, stripes int) *xfer {
	x.chunks = StripeDesc{PayloadSize: uint64(size), Stripes: uint32(stripes)}.appendChunks(x.buf[:0])
	return x
}

// cut is split for a reliable payload: one chunk on a single lane (with
// nothing to overlap, one write moves the bytes cheapest).
func (x *xfer) cut(size, stripes int) *xfer {
	if len(x.lanes) <= 1 {
		stripes = 1
	}
	return x.split(size, stripes)
}

// start runs the plan to its commit word. done fires exactly once: after
// the commit completed, or — on failure — once every posted chunk
// completed. It may fire before start returns.
func (x *xfer) start(done func(error)) {
	x.done = done
	x.pending.Store(int32(len(x.chunks)))
	switch {
	case len(x.chunks) == 0:
		x.postCommit(nil)
	case len(x.chunks) == 1 && x.tag == nil:
		// One chunk needs no batch, just one post: fused with the commit
		// word into the single ascending write of §3.2 when that word is
		// the payload's tail.
		var cb func(error)
		size := x.chunks[0].Size
		if x.fused {
			size, cb = x.commit.LocalOff+FlagWordSize-x.localOff, x.finish
		} else {
			cb = x.chunkCB(0)
		}
		if x.stage != nil {
			copy(x.local.Bytes()[x.localOff:], x.stage)
		}
		x.stripe(0, size)
		if err := x.lanes[0].Memcpy(x.localOff, x.local, x.remoteOff, x.remote, size, x.dir,
			cb); err != nil {
			cb(err)
		}
	default:
		x.post(fullMask(len(x.chunks)), true)
	}
}

// run is start blocking until the outcome.
func (x *xfer) run() error {
	x.wg.Add(1)
	x.start(nil)
	x.wg.Wait()
	return x.err
}

// finish delivers the transfer's outcome once; a duplicated completion of
// the final write is dropped.
func (x *xfer) finish(err error) {
	if !x.fired.CompareAndSwap(false, true) {
		return
	}
	if x.done != nil {
		x.done(err)
		return
	}
	x.err = err // every chunk completed: no writer is left
	x.wg.Done()
}

// postCommit writes the commit word on lane 0 once the join reported every
// chunk landed (err == nil).
func (x *xfer) postCommit(err error) {
	c := x.commit
	if err != nil || c.Local == nil {
		x.finish(err)
		return
	}
	x.stripe(0, c.Size)
	if err := x.lanes[0].Memcpy(c.LocalOff, c.Local, c.RemoteOff, c.Remote, c.Size, OpWrite,
		x.finish); err != nil {
		x.finish(err)
	}
}

func (x *xfer) stripe(lane, bytes int) {
	if x.onStripe != nil {
		x.onStripe(lane, bytes)
	}
}

// chunkCB is chunk i's completion into the plan's join: the last distinct
// chunk to complete posts the commit word, or reports the first failure.
func (x *xfer) chunkCB(i int) func(error) {
	return func(err error) {
		if !x.seen[i].CompareAndSwap(false, true) {
			return // duplicated completion
		}
		if err != nil {
			x.mu.Lock()
			if x.err == nil {
				x.err = err
			}
			x.mu.Unlock()
		}
		if x.pending.Add(-1) == 0 {
			x.mu.Lock()
			err := x.err
			x.mu.Unlock()
			x.postCommit(err)
		}
	}
}

// post is the per-lane doorbell: the chunks selected by mask become work
// requests (chunk i on lane i%L) and each lane's group is posted as one
// batch. With stage set they are instead copied and posted in rounds of one
// chunk per lane. Joined chunks complete into the plan's join, each exactly
// once, also when nothing could be posted: a build error or a refused batch
// completes its chunks with the error, so the join always drains. Lossy
// data chunks are posted unjoined: their fate is learned from the NACK
// protocol, not from their completion.
func (x *xfer) post(mask uint64, joined bool) {
	nl := min(len(x.lanes), len(x.chunks)) // lanes past the last chunk carry none
	// Lane-major: lane l's requests are wrs[ends[l-1]:ends[l]]. They live on
	// the heap — a stack buffer would make this frame kilobytes deep and
	// cost every short-lived transfer goroutine a stack copy.
	wrs := make([]workRequest, 0, len(x.chunks))
	var ends [MaxStripes]int
	for lane := 0; lane < nl; lane++ {
		for i := lane; i < len(x.chunks); i += nl {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			var cb func(error)
			if joined {
				cb = x.chunkCB(i)
			}
			chk := x.chunks[i]
			wr, err := transferWR(x.localOff+chk.Off, x.local, x.remoteOff+chk.Off, x.remote,
				chk.Size, x.dir, cb)
			if err != nil {
				for i := range x.chunks {
					if joined && mask&(1<<uint(i)) != 0 {
						x.chunkCB(i)(err)
					}
				}
				return
			}
			if x.tag != nil {
				t := *x.tag
				t.tag.Seq = uint32(i)
				wr.tag = &t
			}
			wrs = append(wrs, wr)
		}
		ends[lane] = len(wrs)
	}
	if x.stage == nil {
		for lane, begin := 0, 0; lane < nl; lane++ {
			x.ring(lane, wrs[begin:ends[lane]])
			begin = ends[lane]
		}
		return
	}
	staging := x.local.Bytes()[x.localOff:]
	for round := 0; round < len(x.chunks); round += nl {
		end := min(round+nl, len(x.chunks))
		for i := round; i < end; i++ {
			chk := x.chunks[i]
			copy(staging[chk.Off:chk.Off+chk.Size], x.stage[chk.Off:chk.Off+chk.Size])
		}
		for i := round; i < end; i++ {
			at := i / nl // the full plan: chunk i is its lane's (i/nl)-th
			if lane := i % nl; lane > 0 {
				at += ends[lane-1]
			}
			x.ring(i%nl, wrs[at:at+1])
		}
		// A real NIC's doorbell starts its DMA engine at once; an emulated
		// lane is a goroutine that must be scheduled. Yield so the round just
		// posted is in flight while the next one is copied — otherwise, on a
		// small GOMAXPROCS, the copy loop starves the lanes and the pipeline
		// degrades to the staged path.
		runtime.Gosched()
	}
}

// ring posts one lane's work requests under one doorbell. A closed QP takes
// none of them (all-or-none), so each completes with the error.
func (x *xfer) ring(lane int, wrs []workRequest) {
	if len(wrs) == 0 {
		return
	}
	if x.onDoorbell != nil {
		x.onDoorbell(lane, len(wrs))
	}
	for _, wr := range wrs {
		x.stripe(lane, wr.size)
	}
	if err := x.lanes[lane].qp.postBatch(wrs); err != nil {
		for _, wr := range wrs {
			if wr.cb != nil {
				wr.cb(err)
			}
		}
	}
}

// wordBatch plans n control words local[localOff:+8n) → remote[remoteOff:+8n)
// on one lane: one 8-byte write per word, so each lands with a single atomic
// store, posted in order under one doorbell — the last word (the validity
// word) lands last.
func wordBatch(ch *Channel, local *MemRegion, localOff int, remote RemoteRegion, remoteOff, n int) *xfer {
	x := &xfer{
		lanes: []*Channel{ch}, dir: OpWrite,
		local: local, localOff: localOff, remote: remote, remoteOff: remoteOff,
	}
	return x.split(n*FlagWordSize, n)
}

func fullMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// opLabel names a blocking operation in retryLoop's errors. It is kept as
// parts and formatted only on the failure path, so a transfer that succeeds
// builds no label string.
type opLabel struct {
	op     string
	bytes  int // payload size; negative omits it
	remote string
}

func (l opLabel) String() string {
	if l.bytes < 0 {
		return l.op + " to " + l.remote
	}
	return l.op + " " + strconv.Itoa(l.bytes) + "B to " + l.remote
}

// retryLoop is the whole-attempt recovery policy. It runs attempt until it
// succeeds, fails fatally, is canceled, or the deadline or retry budget is
// exhausted (typed ErrTimeout wrapping the last error). Cancellation is
// checked before every attempt — including the first — so an
// already-aborted caller never posts a write at all. With a lane source,
// each attempt leases its lanes from src and releases them once the
// attempt returned — every write it posted drained — so a backing-off edge
// pins no QP slot. The one deadline is handed to every attempt: an attempt
// that waits on its own (the lossy ack wait) draws on the same budget, so
// the whole call stays within Deadline plus at most one backoff. A payload
// operation (what.bytes ≥ 0) that succeeds fires o.OnComplete with its wall
// time, retries included.
func retryLoop(opts TransferOpts, what opLabel, src LaneSource,
	attempt func(lanes []*Channel, deadline time.Time) error) error {
	o := opts.withDefaults()
	start := time.Now()
	deadline := start.Add(o.Deadline)
	backoff := o.Backoff
	busyBackoff := o.Backoff
	for tries := 0; ; {
		if o.Canceled != nil && o.Canceled() {
			return fmt.Errorf("rdma: %s: %w after %d attempts", what, ErrCanceled, tries)
		}
		err := attemptLeased(src, what.remote, deadline, attempt)
		if err == nil {
			if what.bytes >= 0 && o.OnComplete != nil {
				o.OnComplete(what.bytes, time.Since(start))
			}
			return nil
		}
		if !Retryable(err) {
			return err
		}
		if errors.Is(err, ErrQPBusy) {
			// Mux-slot contention: every QP slot is pinned by another live
			// attempt. That is scheduling pressure, not a fabric fault, so
			// it waits on its own backoff curve bounded by the deadline
			// alone — at 64 tasks a stretch of busy slots must not eat the
			// MaxRetries budget a real drop needs later.
			if !time.Now().Add(busyBackoff).Before(deadline) {
				return fmt.Errorf("rdma: %s: qp slots busy past deadline: %w (last: %w)",
					what, ErrTimeout, err)
			}
			if o.OnRetry != nil {
				o.OnRetry(err)
			}
			sleep(busyBackoff)
			busyBackoff *= 2
			if busyBackoff > o.MaxBackoff {
				busyBackoff = o.MaxBackoff
			}
			continue
		}
		if tries >= o.MaxRetries || !time.Now().Add(backoff).Before(deadline) {
			return fmt.Errorf("rdma: %s: gave up after %d attempts: %w (last: %w)",
				what, tries+1, ErrTimeout, err)
		}
		tries++
		if o.Canceled != nil && o.Canceled() {
			return fmt.Errorf("rdma: %s: %w after %d attempts (last: %w)",
				what, ErrCanceled, tries, err)
		}
		if o.OnRetry != nil {
			o.OnRetry(err)
		}
		sleep(backoff)
		backoff *= 2
		if backoff > o.MaxBackoff {
			backoff = o.MaxBackoff
		}
	}
}

// attemptLeased runs one attempt over lanes leased from src (none without a
// source) and releases them when the attempt returned.
func attemptLeased(src LaneSource, peer string, deadline time.Time,
	attempt func(lanes []*Channel, deadline time.Time) error) error {
	if src == nil {
		return attempt(nil, deadline)
	}
	lanes, release, err := src.AcquireLanes(peer)
	if err != nil {
		return err
	}
	defer release()
	return attempt(lanes, deadline)
}

// WriteRetry writes local[0:size) to the same offsets of remote — striped
// over the lanes src supplies, one doorbell per lane, joined — and then the
// commit word local[size:size+8) to remote[size:size+8), retrying the whole
// transfer within opts. size must be 8-aligned. A reader that sees the new
// commit word sees the whole payload; the weight publisher uses the bank's
// version word as the commit word.
func WriteRetry(src LaneSource, local *MemRegion, remote RemoteRegion, size int, opts TransferOpts) error {
	o := opts.withDefaults()
	return retryLoop(o, opLabel{"committed write", size, remote.Endpoint}, src,
		func(lanes []*Channel, _ time.Time) error {
			x := slotWrite(lanes, local, 0, remote, 0, size, o.Stripes)
			x.fused = false // the commit word is always a write of its own
			x.onStripe, x.onDoorbell = o.OnStripe, o.OnDoorbell
			return x.run()
		})
}
