package rdma

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Regression tests for the close-with-in-flight-work bug: work requests
// buffered on a QP when the device (or just the peer link) closes used to
// execute anyway — landing writes in live peers' memory during teardown and
// making Close effectively wait out the whole queue. Now each buffered WR
// fails fast with ErrClosed. Run with -race.

// goroutineSettle waits for the goroutine count to drop back to within
// slack of base, tolerating scheduler lag.
func goroutineSettle(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d live, started with %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// parkUntilReleased parks one goroutine on d's landed-write signal with a
// bound far beyond any test, returning a channel closed when the park ends.
// Nothing lands on d while it waits, so only a wake can release it.
func parkUntilReleased(d *Device) <-chan struct{} {
	released := make(chan struct{})
	seq := d.LandedSeq()
	go func() {
		d.WaitLanded(seq, time.Hour)
		close(released)
	}()
	return released
}

// TestCloseMidTransferFailsFast queues a backlog of slow Memcpys and closes
// the device mid-stream: every pending callback must fire promptly with
// ErrClosed instead of draining the queue at one injected delay apiece. A
// goroutine parked on the device's landed-write signal when Close begins
// must be released too — the goroutine-leak check at the end counts it.
func TestCloseMidTransferFailsFast(t *testing.T) {
	base := runtime.NumGoroutine()
	const (
		backlog = 40
		delay   = 30 * time.Millisecond
	)
	f := NewFabric()
	a, err := CreateDevice(f, Config{Endpoint: "hostA:1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CreateDevice(f, Config{Endpoint: "hostB:1"})
	if err != nil {
		t.Fatal(err)
	}
	src, err := a.AllocateMemRegion(64)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := b.AllocateMemRegion(64)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := a.GetChannel("hostB:1", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every transfer stalls in the fabric, so the queue backs up behind the
	// first one.
	f.SetHooks(Hooks{TransferDelay: func(Op, int) time.Duration { return delay }})

	var wg sync.WaitGroup
	var closedErrs atomic.Int64
	wg.Add(backlog)
	for i := 0; i < backlog; i++ {
		err := ch.Memcpy(0, src, 0, dst.Descriptor(), 64, OpWrite, func(err error) {
			if errors.Is(err, ErrClosed) {
				closedErrs.Add(1)
			}
			wg.Done()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	parked := parkUntilReleased(a)
	start := time.Now()
	a.Close() // at most one WR is mid-delay; the rest must fail fast
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a waiter parked on the landed signal")
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("callbacks never completed after Close: buffered work hung")
	}
	elapsed := time.Since(start)
	// Draining the backlog at one delay per WR would take backlog*delay
	// (1.2s); fail-fast is bounded by the one in-flight delay plus slack.
	if limit := 4 * delay; elapsed > limit {
		t.Errorf("close took %v, want < %v (buffered WRs executed instead of failing)", elapsed, limit)
	}
	if n := closedErrs.Load(); n < backlog/2 {
		t.Errorf("only %d/%d callbacks saw ErrClosed", n, backlog)
	}
	b.Close()
	goroutineSettle(t, base, 2)
}

// TestCloseMidStripedTransferFailsFast is the multi-lane variant: a striped
// send in flight across 8 QPs when the device closes must complete its
// callback (with an error) without hanging any lane.
func TestCloseMidStripedTransferFailsFast(t *testing.T) {
	base := runtime.NumGoroutine()
	const delay = 30 * time.Millisecond
	f := NewFabric()
	a, err := CreateDevice(f, Config{Endpoint: "hostA:1", QPsPerPeer: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CreateDevice(f, Config{Endpoint: "hostB:1", QPsPerPeer: 8})
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 16
	recvMR, err := b.AllocateMemRegion(StaticSlotSize(size))
	if err != nil {
		t.Fatal(err)
	}
	recv, err := NewStaticReceiver(recvMR, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	sendMR, err := a.AllocateMemRegion(StaticSlotSize(size))
	if err != nil {
		t.Fatal(err)
	}
	sender, err := NewStaticSender(mustChannel(t, a, "hostB:1", 0), sendMR, 0, recv.Desc())
	if err != nil {
		t.Fatal(err)
	}
	for lane := 1; lane < 8; lane++ {
		if err := sender.AddLane(mustChannel(t, a, "hostB:1", lane)); err != nil {
			t.Fatal(err)
		}
	}
	f.SetHooks(Hooks{TransferDelay: func(Op, int) time.Duration { return delay }})

	cbErr := make(chan error, 1)
	if err := sender.SendStriped(8, nil, func(err error) { cbErr <- err }); err != nil {
		t.Fatal(err)
	}
	a.Close()
	select {
	case err := <-cbErr:
		// The stripes race Close: chunks already executing land, buffered
		// ones fail. Either way the aggregate callback must carry the
		// failure (all-landed would mean Close didn't interrupt anything,
		// impossible with 8 stalled lanes and an immediate Close).
		if err == nil {
			t.Error("striped send reported success through a mid-flight Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("striped send callback never fired after Close")
	}
	b.Close()
	goroutineSettle(t, base, 2)
}

// TestClosePeerSeversThenRebuilds exercises the recovery teardown path:
// ClosePeer must fail buffered work to that peer with ErrClosed, and a
// fresh GetChannel afterwards must yield working QPs (the sever → restart →
// rebuild sequence the crash-recovery driver runs).
func TestClosePeerSeversThenRebuilds(t *testing.T) {
	const delay = 20 * time.Millisecond
	f, a, b := newPair(t)
	src, err := a.AllocateMemRegion(64)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := b.AllocateMemRegion(64)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := a.GetChannel("hostB:1", 0)
	if err != nil {
		t.Fatal(err)
	}
	f.SetHooks(Hooks{TransferDelay: func(Op, int) time.Duration { return delay }})
	const backlog = 16
	var wg sync.WaitGroup
	var closedErrs atomic.Int64
	wg.Add(backlog)
	for i := 0; i < backlog; i++ {
		err := ch.Memcpy(0, src, 0, dst.Descriptor(), 64, OpWrite, func(err error) {
			if errors.Is(err, ErrClosed) {
				closedErrs.Add(1)
			}
			wg.Done()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	parked := parkUntilReleased(a)
	a.ClosePeer("hostB:1")
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("ClosePeer left a waiter parked on the landed signal")
	}
	wg.Wait()
	if closedErrs.Load() == 0 {
		t.Error("no buffered WR failed with ErrClosed after ClosePeer")
	}
	// The severed channel's QP is gone for good.
	if err := ch.Memcpy(0, src, 0, dst.Descriptor(), 64, OpWrite, func(error) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("post on severed channel: %v, want ErrClosed", err)
	}
	// But the devices are both alive: a fresh channel rebuilds the link.
	f.SetHooks(Hooks{})
	fresh, err := a.GetChannel("hostB:1", 0)
	if err != nil {
		t.Fatal(err)
	}
	copy(src.Bytes(), bytes.Repeat([]byte{0xAB}, 64))
	if err := fresh.MemcpySync(0, src, 0, dst.Descriptor(), 64, OpWrite); err != nil {
		t.Fatalf("transfer after rebuild: %v", err)
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Error("rebuilt channel transferred wrong bytes")
	}
}

func mustChannel(t *testing.T, d *Device, remote string, qp int) *Channel {
	t.Helper()
	ch, err := d.GetChannel(remote, qp)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}
