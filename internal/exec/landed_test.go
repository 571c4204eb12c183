package exec

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// fakeLanded is an Env implementing LandedSignal. Every poll of
// landedPollOp "lands a write" (advances the sequence), so a worker that
// read the sequence before polling always parks against a stale reading —
// which a real signal returns at once — while one that read it after
// polling would park against the current value and sleep through the write.
type fakeLanded struct {
	seq atomic.Uint64

	mu        sync.Mutex
	parks     int
	staleSeqs int // parks whose seq predates the poll that missed
	wakes     int

	// park, when set, replaces the default instant return.
	park func(seq uint64, max time.Duration)
}

func (f *fakeLanded) LandedSeq() uint64 { return f.seq.Load() }

func (f *fakeLanded) WaitLanded(seq uint64, max time.Duration) {
	f.mu.Lock()
	f.parks++
	if seq < f.seq.Load() {
		f.staleSeqs++
	}
	park := f.park
	f.mu.Unlock()
	if park != nil {
		park(seq, max)
	}
}

func (f *fakeLanded) WakeLanded() {
	f.mu.Lock()
	f.wakes++
	f.mu.Unlock()
	f.seq.Add(1)
}

// landedPollOp misses until ready, advancing the fake's sequence on every
// poll — the write "lands" while the worker polls.
type landedPollOp struct {
	ready atomic.Bool
	polls atomic.Int64
}

func (p *landedPollOp) Name() string { return "LandedPoll" }
func (p *landedPollOp) InferSig(in []graph.Sig) (graph.Sig, error) {
	return graph.Static(tensor.Float32), nil
}
func (p *landedPollOp) Poll(ctx *graph.Context) (bool, error) {
	p.polls.Add(1)
	ctx.Env.(*fakeLanded).seq.Add(1)
	return p.ready.Load(), nil
}
func (p *landedPollOp) Compute(ctx *graph.Context) error {
	out, err := ctx.Alloc(tensor.Float32, nil)
	if err != nil {
		return err
	}
	ctx.Output = out
	return nil
}

func buildLandedGraph(t *testing.T, op *landedPollOp) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	b.ReduceMax("sink", b.AddNode("recv", op))
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWorkerReadsLandedSeqBeforePoll pins the lost-wakeup ordering of the
// pure-polling park: the worker reads the landed sequence before it polls
// its batch, so every park is against a reading the write inside the poll
// already moved past.
func TestWorkerReadsLandedSeqBeforePoll(t *testing.T) {
	op := &landedPollOp{}
	env := &fakeLanded{}
	const misses = pollSpinBudget + 20
	env.park = func(uint64, time.Duration) {
		if op.polls.Load() >= misses {
			op.ready.Store(true)
		}
	}
	e, err := New(buildLandedGraph(t, op), Config{Workers: 1, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(0, nil, "sink"); err != nil {
		t.Fatal(err)
	}
	env.mu.Lock()
	defer env.mu.Unlock()
	if env.parks == 0 {
		t.Fatal("pure-polling worker never parked on the landed signal")
	}
	if env.staleSeqs != env.parks {
		t.Errorf("%d of %d parks used a sequence read after the poll: a write landing during the poll would be slept through",
			env.parks-env.staleSeqs, env.parks)
	}
}

// TestAbortWakesParkedWorker: a worker parked on the landed signal (here a
// park that only a wake ends) must be released by Abort, so recovery never
// waits out a park's bound.
func TestAbortWakesParkedWorker(t *testing.T) {
	op := &landedPollOp{}
	env := &fakeLanded{}
	parked := make(chan struct{}, 1)
	env.park = func(seq uint64, _ time.Duration) {
		select {
		case parked <- struct{}{}:
		default:
		}
		deadline := time.Now().Add(10 * time.Second)
		for env.seq.Load() == seq+1 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond) // the fake's own wait, not the worker's
		}
	}
	e, err := New(buildLandedGraph(t, op), Config{Workers: 1, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(0, nil, "sink")
		done <- err
	}()
	<-parked
	start := time.Now()
	e.Abort(nil)
	select {
	case err := <-done:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("run err = %v, want ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not release the parked worker")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("aborted run took %v to return", d)
	}
	env.mu.Lock()
	defer env.mu.Unlock()
	if env.wakes == 0 {
		t.Error("Abort never called WakeLanded")
	}
}

// TestPollWaitRecordsMeasuredPark: the poll-wait histogram holds how long a
// worker actually waited, not the backoff it asked for. The fake's park
// lasts 2ms whatever the bound, so every recorded wait is at least that.
func TestPollWaitRecordsMeasuredPark(t *testing.T) {
	const parkFor = 2 * time.Millisecond
	op := &landedPollOp{}
	env := &fakeLanded{}
	env.park = func(uint64, time.Duration) {
		time.Sleep(parkFor)
		if op.polls.Load() >= pollSpinBudget+3 {
			op.ready.Store(true)
		}
	}
	hists := &metrics.Set{}
	e, err := New(buildLandedGraph(t, op), Config{Workers: 1, Env: env, Hists: hists})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(0, nil, "sink"); err != nil {
		t.Fatal(err)
	}
	s := hists.Hist(metrics.HistPollWaitNs).Snapshot()
	if s.Count == 0 {
		t.Fatal("no poll wait recorded")
	}
	// The requested backoffs here are 5-20µs; the recorded mean must be the
	// measured ~2ms parks.
	if mean := time.Duration(s.Sum / s.Count); mean < parkFor {
		t.Errorf("mean recorded poll wait %v < measured park %v: histogram records the request", mean, parkFor)
	}
}
