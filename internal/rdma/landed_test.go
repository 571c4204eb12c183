package rdma

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// landedPair is two devices on one fabric with a target region on b and a
// channel from a to b.
func landedPair(t *testing.T) (a, b *Device, src, dst *MemRegion, ch *Channel) {
	t.Helper()
	f := NewFabric()
	var err error
	if a, err = CreateDevice(f, Config{Endpoint: "landA:1"}); err != nil {
		t.Fatal(err)
	}
	if b, err = CreateDevice(f, Config{Endpoint: "landB:1"}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	if src, err = a.AllocateMemRegion(64); err != nil {
		t.Fatal(err)
	}
	if dst, err = b.AllocateMemRegion(64); err != nil {
		t.Fatal(err)
	}
	if ch, err = a.GetChannel("landB:1", 0); err != nil {
		t.Fatal(err)
	}
	return a, b, src, dst, ch
}

// TestWaitLandedNoLostWakeup: a write landing between reading the sequence
// and parking must end the park at once, not after its bound.
func TestWaitLandedNoLostWakeup(t *testing.T) {
	_, b, src, dst, ch := landedPair(t)
	src.StoreWord(0, FlagSet)
	seq := b.LandedSeq()
	if dst.PollFlag(0) {
		t.Fatal("flag set before the write")
	}
	// The write lands after the check, before the park.
	if err := ch.MemcpySync(0, src, 0, dst.Descriptor(), 8, OpWrite); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	b.WaitLanded(seq, time.Minute)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("park against a pre-write sequence lasted %v: wakeup lost", d)
	}
	if !dst.PollFlag(0) {
		t.Fatal("woken but flag not visible")
	}
}

// TestWaitLandedWakesOnEveryVerb: a parked waiter is released by a
// one-sided write, an atomic and WakeLanded; a read into the device's own
// memory is not a landed write on the target and must not bump it.
func TestWaitLandedWakesOnEveryVerb(t *testing.T) {
	_, b, src, dst, ch := landedPair(t)
	verbs := map[string]func() error{
		"write": func() error { return ch.MemcpySync(0, src, 0, dst.Descriptor(), 8, OpWrite) },
		"atomic": func() error {
			_, err := ch.FetchAddSync(8, dst.Descriptor(), 1)
			return err
		},
		"wake": func() error { b.WakeLanded(); return nil },
	}
	for name, verb := range verbs {
		seq := b.LandedSeq()
		done := make(chan struct{})
		go func() {
			b.WaitLanded(seq, time.Minute)
			close(done)
		}()
		if err := verb(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not wake the parked waiter", name)
		}
	}
	seq := b.LandedSeq()
	if err := ch.MemcpySync(0, src, 0, dst.Descriptor(), 8, OpRead); err != nil {
		t.Fatal(err)
	}
	if b.LandedSeq() != seq {
		t.Error("a read from b's memory bumped b's landed sequence")
	}
}

// TestWaitLandedBounded: with nothing landing, a park returns after its
// bound.
func TestWaitLandedBounded(t *testing.T) {
	_, b, _, _, _ := landedPair(t)
	start := time.Now()
	b.WaitLanded(b.LandedSeq(), 5*time.Millisecond)
	if d := time.Since(start); d < 5*time.Millisecond || d > 2*time.Second {
		t.Fatalf("bounded park lasted %v, want about 5ms", d)
	}
}

// TestLandedSignalStress races concurrent bumps and parks on one signal
// under the race detector. Each pair plays ping-pong: the producer
// publishes round i and bumps; the consumer reads the sequence, checks the
// round, and parks (bound: a minute) until it sees round i, then answers.
// Other pairs bump the same signal meanwhile. A single lost wakeup leaves a
// consumer parked past the test's deadline.
func TestLandedSignalStress(t *testing.T) {
	var s landedSignal
	const (
		pairs  = 4
		rounds = 2000
	)
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		var round atomic.Int64
		ack := make(chan struct{})
		wg.Add(2)
		go func() { // consumer
			defer wg.Done()
			for want := int64(1); want <= rounds; want++ {
				for {
					seq := s.seq.Load()
					if round.Load() >= want {
						break
					}
					s.wait(seq, time.Minute)
				}
				ack <- struct{}{}
			}
		}()
		go func() { // producer
			defer wg.Done()
			for i := int64(1); i <= rounds; i++ {
				round.Store(i)
				s.bump()
				if i%64 == 0 {
					runtime.Gosched()
				}
				<-ack
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a consumer stayed parked after its round was bumped: wakeup lost")
	}
	if n := s.waiters.Load(); n != 0 {
		t.Errorf("%d waiters still registered after every park returned", n)
	}
}
