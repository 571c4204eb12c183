package rdma

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the transfer engine's shared rules: one deadline per blocking
// call, one lane-count rule, and a join that drains before a failed
// transfer reports.

// oneDeadlineOpts is a budget whose backoff is small next to the deadline,
// so a call that restarted its deadline mid-way overshoots the bound by far.
var oneDeadlineOpts = TransferOpts{
	Deadline:   400 * time.Millisecond,
	MaxRetries: 1 << 20,
	Backoff:    time.Millisecond,
	MaxBackoff: 20 * time.Millisecond,
}

// TestFetchRetryOneDeadline: the payload read fails transiently for the
// first 60% of the budget, then the ack write is blackholed. The read and
// its ack draw on the one Deadline of the FetchRetry call, so it fails with
// ErrTimeout within Deadline + one MaxBackoff — not a fresh budget for the
// ack after the read finally landed.
func TestFetchRetryOneDeadline(t *testing.T) {
	f, a, b := newPair(t)
	metaMR, _ := b.AllocateMemRegion(DynMetaSize)
	recv, err := NewDynReceiver(mustChannel(t, b, "hostA:1", 0), metaMR, 0)
	if err != nil {
		t.Fatal(err)
	}
	scratchMR, _ := a.AllocateMemRegion(DynMetaSize)
	send, err := NewDynSender(mustChannel(t, a, "hostB:1", 0), scratchMR, 0, recv.Desc())
	if err != nil {
		t.Fatal(err)
	}
	const size = 256
	payloadMR, _ := a.AllocateMemRegion(size)
	if err := send.SendRetry(payloadMR, 0, size, 7, []uint64{size}, TransferOpts{}); err != nil {
		t.Fatal(err)
	}
	meta, err := recv.WaitMeta(TransferOpts{})
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := b.AllocateMemRegion(size)

	o := oneDeadlineOpts
	start := time.Now()
	readsHealAt := start.Add(o.Deadline * 6 / 10)
	var readsLanded atomic.Int64
	f.SetHooks(Hooks{TransferFault: func(op Op, n int) error {
		switch {
		case op == OpRead && time.Now().Before(readsHealAt):
			return fmt.Errorf("read dropped: %w", ErrInjected)
		case op == OpRead:
			readsLanded.Add(1)
			return nil
		case n == FlagWordSize:
			return fmt.Errorf("ack blackholed: %w", ErrInjected)
		}
		return nil
	}})
	err = recv.FetchRetry(meta, send.ScratchDesc(), dst, 0, o)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("fetch with a blackholed ack: err = %v, want ErrTimeout", err)
	}
	if readsLanded.Load() == 0 {
		t.Fatal("the read never completed; the ack was never tried")
	}
	if bound := o.Deadline + o.MaxBackoff; elapsed > bound {
		t.Fatalf("fetch failed after %v, past Deadline+MaxBackoff %v", elapsed, bound)
	}
}

// TestLossySendOneDeadline: announces fail transiently (every control word
// is dropped) for the first 60% of the budget, then every chunk is lost.
// The ack wait of the attempt that finally announced draws on the same
// deadline as the failed announces, so the send fails with ErrTimeout
// within Deadline + one MaxBackoff.
func TestLossySendOneDeadline(t *testing.T) {
	const payload = 1 << 10
	f, send, _ := newLossyPair(t, payload, 2, time.Millisecond)
	o := oneDeadlineOpts
	o.Stripes = 4
	start := time.Now()
	controlHealsAt := start.Add(o.Deadline * 6 / 10)
	f.SetHooks(Hooks{
		TransferFault: func(op Op, n int) error {
			if n == FlagWordSize && time.Now().Before(controlHealsAt) {
				return fmt.Errorf("control word dropped: %w", ErrInjected)
			}
			return nil
		},
		Lossy:     true,
		ChunkDrop: func(ChunkTag, int) bool { return true },
	})
	err := send.SendRetryFrom(bytes.Repeat([]byte{0x5A}, payload), o)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("lossy send with every chunk lost: err = %v, want ErrTimeout", err)
	}
	if send.FullResends() == 0 {
		t.Fatal("no announce failed; the control-plane retries were not exercised")
	}
	if bound := o.Deadline + o.MaxBackoff; elapsed > bound {
		t.Fatalf("lossy send failed after %v, past Deadline+MaxBackoff %v", elapsed, bound)
	}
}

// TestLaneCountRule: a transfer's lane count is min(stripes, QPsPerPeer,
// MaxStripes), at least 1, and Device.Lanes hands out that many channels on
// distinct QPs, wrapping from the first QP it is given.
func TestLaneCountRule(t *testing.T) {
	f := NewFabric()
	d, err := CreateDevice(f, Config{Endpoint: "lanes:1", QPsPerPeer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, c := range []struct{ stripes, want int }{
		{0, 1}, {1, 1}, {3, 3}, {4, 4}, {8, 4}, {MaxStripes + 5, 4},
	} {
		if got := d.LaneCount(c.stripes); got != c.want {
			t.Errorf("LaneCount(%d) = %d, want %d", c.stripes, got, c.want)
		}
	}
	lanes, err := d.Lanes("peer:1", 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(lanes) != 4 {
		t.Fatalf("Lanes(first 3, 8 stripes) gave %d lanes, want 4", len(lanes))
	}
	seen := make(map[*queuePair]bool)
	for i, ch := range lanes {
		want := mustChannel(t, d, "peer:1", (3+i)%4)
		if ch.qp != want.qp {
			t.Errorf("lane %d on the wrong QP", i)
		}
		if seen[ch.qp] {
			t.Errorf("lane %d aliases another lane's QP", i)
		}
		seen[ch.qp] = true
	}
}

// TestAddLaneRejectsLeasedEdge: an edge whose lanes come from a lease
// takes no fixed lanes.
func TestAddLaneRejectsLeasedEdge(t *testing.T) {
	_, a, b := newStripedPair(t)
	recvMR, _ := b.AllocateMemRegion(StaticSlotSize(64))
	recv, err := NewStaticReceiver(recvMR, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	sendMR, _ := a.AllocateMemRegion(StaticSlotSize(64))
	sender, err := NewStaticSender(mustChannel(t, a, "hostB:1", 0), sendMR, 0, recv.Desc())
	if err != nil {
		t.Fatal(err)
	}
	mux, err := NewQPMux(a, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sender.SetLaneSource(mux)
	if err := sender.AddLane(mustChannel(t, a, "hostB:1", 1)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("AddLane on a leased edge: err = %v, want ErrBadConfig", err)
	}
}

// TestStripedSendDrainsBeforeFailing: a fatal fault on one chunk of a
// striped send while a sibling chunk is delayed. The send must report the
// failure only after the sibling completed — it still reads the staging
// buffer the caller may restage once the send returns.
func TestStripedSendDrainsBeforeFailing(t *testing.T) {
	f, a, b := newStripedPair(t)
	const size = 1 << 12 // 2 chunks of 2 KiB
	recvMR, _ := b.AllocateMemRegion(StaticSlotSize(size))
	recv, err := NewStaticReceiver(recvMR, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	sendMR, _ := a.AllocateMemRegion(StaticSlotSize(size))
	lanes := lanesTo(t, a, "hostB:1", 2)
	sender, err := NewStaticSender(lanes[0], sendMR, 0, recv.Desc())
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.AddLane(lanes[1]); err != nil {
		t.Fatal(err)
	}
	var chunk atomic.Int64
	var completions atomic.Int64
	f.SetHooks(Hooks{
		TransferFault: func(op Op, n int) error {
			if n == size/2 && chunk.Add(1) == 1 {
				return fmt.Errorf("chunk rejected: %w", ErrBounds)
			}
			return nil
		},
		TransferDelay: func(op Op, n int) time.Duration {
			if n == size/2 && chunk.Load() >= 1 {
				return 30 * time.Millisecond
			}
			return 0
		},
		CompletionFault: func(op Op, n int) CompletionFault {
			if n == size/2 {
				completions.Add(1)
			}
			return CompletionFault{}
		},
	})
	err = sender.SendRetry(TransferOpts{Stripes: 2, Deadline: 5 * time.Second})
	if !errors.Is(err, ErrBounds) {
		t.Fatalf("send with a rejected chunk: err = %v, want ErrBounds", err)
	}
	if got := completions.Load(); got != 2 {
		t.Fatalf("send returned after %d of 2 chunk completions", got)
	}
	if recv.Poll() {
		t.Fatal("flag set although a chunk failed")
	}
}

// TestWriteRetryMoreLanesThanChunks: a caller-built FixedLanes may hold more
// lanes than a plan has chunks (here 20 QPs for a 64-byte payload, 8
// chunks): the surplus lanes carry nothing, the payload lands whole and the
// commit word lands after it.
func TestWriteRetryMoreLanesThanChunks(t *testing.T) {
	f := NewFabric()
	a, err := CreateDevice(f, Config{Endpoint: "wide:1", QPsPerPeer: 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CreateDevice(f, Config{Endpoint: "wide:2"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { a.Close(); b.Close() }()
	const size = 64
	src, _ := a.AllocateMemRegion(size + FlagWordSize)
	dst, _ := b.AllocateMemRegion(size + FlagWordSize)
	fillStripePattern(src.Bytes()[:size], 0x21)
	src.StoreWord(size, 7)
	lanes := make(FixedLanes, 20)
	for i := range lanes {
		lanes[i] = mustChannel(t, a, "wide:2", i)
	}
	if err := WriteRetry(lanes, src, dst.Descriptor(), size, TransferOpts{Stripes: 20}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes()[:size], src.Bytes()[:size]) || dst.LoadWord(size) != 7 {
		t.Fatal("payload or commit word did not land")
	}
}
