// Package exec executes data-flow graph partitions: a worker pool drains a
// ready queue of nodes, supporting the three operator execution modes of §4
// — synchronous, asynchronous, and the paper's new polling-async mode,
// where a receive operator that polls a flag byte is re-enqueued at the
// tail of the ready queue until the flag is set, so polling never blocks
// other ready work.
package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Execution errors.
var (
	ErrExec        = errors.New("exec: execution failed")
	ErrFeed        = errors.New("exec: bad feed")
	ErrFetch       = errors.New("exec: unknown fetch")
	ErrAborted     = errors.New("exec: aborted")
	ErrPollTimeout = errors.New("exec: polling made no progress")
)

// Config parameterizes an Executor.
type Config struct {
	// Task selects the partition: only nodes assigned to this task run.
	// Empty runs the whole graph (single-server mode).
	Task string
	// Workers is the worker-goroutine count (default 4).
	Workers int
	// Vars is the variable store; required if the partition has variables.
	Vars *VarStore
	// Policy routes tensor allocations (default HeapPolicy).
	Policy AllocPolicy
	// Env is passed through to kernels via Context.Env. An Env that also
	// implements LandedSignal lets pure-polling workers park until a peer's
	// write lands instead of sleeping out their backoff.
	Env any
	// PollTimeout aborts an iteration when no node completes for this long
	// while polling operators spin — the failure-detection backstop for a
	// peer that died or a partitioned fabric. Zero disables the timeout.
	PollTimeout time.Duration
	// KernelWorkers, when positive, resizes the process-wide compute-kernel
	// pool (internal/parallel) the tensor kernels chunk their work onto.
	// Zero leaves the pool at its GOMAXPROCS default. The pool is shared by
	// every executor in the process; results are bit-identical at any size.
	KernelWorkers int
	// DisableRecycle turns off iteration-scoped output-tensor reuse even
	// when the alloc policy permits it (the Recycler marker).
	DisableRecycle bool
	// Trace, when non-nil, records one duration event per operator
	// execution (chrome trace-event format).
	Trace *trace.Recorder
	// Hists, when non-nil, receives latency histograms: per-op execution
	// latency (metrics.HistExecOpNs, keyed by op name) and poll-wait time
	// (metrics.HistPollWaitNs). Histogram pointers are resolved once per op
	// at first execution, so the per-record cost is a few atomic adds.
	Hists *metrics.Set
	// Frozen rejects graphs that mutate variables (optimizer updates) at
	// construction time. Serving executors run against variable stores
	// aliasing publisher-owned bank memory, where an in-place update would
	// corrupt a shared weight snapshot; Frozen makes that a build error
	// instead of a data race.
	Frozen bool
}

// LandedSignal is implemented by an Env whose polled words are written by a
// fabric that announces landed writes (the RDMA device's landed-write
// sequence). A worker reads LandedSeq before it polls its batch; when the
// whole batch misses, it parks in WaitLanded against that reading with its
// backoff as the bound, so the park ends as soon as anything lands — a write
// that lands between the poll and the park ends it at once. WakeLanded
// releases every parked waiter; Abort calls it.
type LandedSignal interface {
	LandedSeq() uint64
	WaitLanded(seq uint64, max time.Duration)
	WakeLanded()
}

// Executor runs one graph partition iteration by iteration.
type Executor struct {
	g       *graph.Graph
	cfg     Config
	nodes   []*graph.Node // partition nodes
	inPart  []bool        // by node id
	consume [][]*graph.Node
	indeg   []int
	stats   *statsTable
	recycle *recycler    // nil unless the policy opted in
	landed  LandedSignal // nil unless cfg.Env implements it

	pollWaitHist  *metrics.Histogram // nil unless cfg.Hists is set
	pollBatchHist *metrics.Histogram // nil unless cfg.Hists is set

	runMu   sync.Mutex
	current *runState // in-flight iteration, abortable from outside
	lastRun metrics.StepBreakdown
}

// New validates the partition and builds an executor. Every input of a
// partition node must itself be in the partition (cross-server edges must
// already have been replaced by send/recv pairs).
func New(g *graph.Graph, cfg Config) (*Executor, error) {
	if cfg.Frozen {
		if err := graph.ForwardOnly(g); err != nil {
			return nil, err
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Policy == nil {
		cfg.Policy = HeapPolicy{}
	}
	if cfg.Vars == nil {
		cfg.Vars = NewVarStore()
	}
	if cfg.KernelWorkers > 0 {
		parallel.SetWorkers(cfg.KernelWorkers)
	}
	all := g.Nodes()
	e := &Executor{
		g:       g,
		cfg:     cfg,
		inPart:  make([]bool, len(all)),
		consume: make([][]*graph.Node, len(all)),
		indeg:   make([]int, len(all)),
		stats:   newStatsTable(cfg.Hists),
	}
	e.landed, _ = cfg.Env.(LandedSignal)
	if cfg.Hists != nil {
		e.pollWaitHist = cfg.Hists.Hist(metrics.HistPollWaitNs)
		e.pollBatchHist = cfg.Hists.Hist(metrics.HistPolledBatch)
	}
	for _, n := range all {
		if cfg.Task == "" || n.Task() == cfg.Task {
			e.inPart[n.ID()] = true
			e.nodes = append(e.nodes, n)
		}
	}
	for _, n := range e.nodes {
		deps := 0
		for _, in := range n.Inputs() {
			if !e.inPart[in.ID()] {
				return nil, fmt.Errorf("exec: %s input %s is outside partition %q: %w",
					n.Name(), in.Name(), cfg.Task, graph.ErrBadGraph)
			}
			e.consume[in.ID()] = append(e.consume[in.ID()], n)
			deps++
		}
		for _, c := range n.Controls() {
			if !e.inPart[c.ID()] {
				return nil, fmt.Errorf("exec: %s control dep %s is outside partition %q: %w",
					n.Name(), c.Name(), cfg.Task, graph.ErrBadGraph)
			}
			e.consume[c.ID()] = append(e.consume[c.ID()], n)
			deps++
		}
		e.indeg[n.ID()] = deps
	}
	if r, ok := cfg.Policy.(Recycler); ok && r.AllowRecycle() && !cfg.DisableRecycle {
		e.recycle = newRecycler()
	}
	return e, nil
}

// Nodes returns the partition's nodes.
func (e *Executor) Nodes() []*graph.Node { return e.nodes }

// traceLane names this executor's trace process lane.
func (e *Executor) traceLane() string {
	if e.cfg.Task != "" {
		return e.cfg.Task
	}
	return "local"
}

// Vars returns the executor's variable store.
func (e *Executor) Vars() *VarStore { return e.cfg.Vars }

// LastRun returns the step-time breakdown of the most recently completed
// Run call (zero value before the first run). Worker time is attributed by
// lap timestamps, so Accounted() sums to about Workers x Wall.
func (e *Executor) LastRun() metrics.StepBreakdown {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	return e.lastRun
}

// Abort fails the in-flight iteration, if any, with ErrAborted wrapping
// cause. Workers drain promptly (polling operators stop re-enqueueing,
// next() returns false), in-flight communication is canceled through
// Context.Canceled, and Run returns only after every asynchronous
// operation's completion callback has landed — so when Run comes back, no
// transfer of the dead iteration can still touch memory. Recovery drivers
// call it to cut short a step whose peer has crashed. Safe to call
// concurrently with Run and when no iteration is running (then it is a
// no-op).
func (e *Executor) Abort(cause error) {
	e.runMu.Lock()
	st := e.current
	e.runMu.Unlock()
	if st == nil {
		return
	}
	if cause == nil {
		st.fail(ErrAborted)
	} else {
		st.fail(fmt.Errorf("%w: %w", ErrAborted, cause))
	}
	if e.landed != nil {
		e.landed.WakeLanded() // parked workers see the failure now
	}
}

// run-state shared by the workers of one iteration.
type runState struct {
	e     *Executor
	iter  int
	feeds map[string]*tensor.Tensor

	mu         sync.Mutex
	cond       *sync.Cond
	queue      []*graph.Node
	remaining  []int
	values     []*tensor.Tensor
	pollCtxs   []*graph.Context // by node id; see pollContext
	pending    int              // nodes not yet completed
	inflight   int              // nodes currently being executed (incl. async)
	nonPolling int              // queued nodes that are not polling operators
	progress   time.Time
	err        error

	// Step accounting: workers fold their lap totals here at exit; async
	// completion callbacks add dispatch-to-done latency concurrently.
	acct         metrics.StepBreakdown
	inflightNsAt atomic.Int64
	// lifeNs sums the workers' measured loop lifetimes (wall start to loop
	// exit); Run labels the drain tail — wall minus lifetime, the stretch a
	// worker already exited while a sibling finished its last backoff sleep
	// or in-flight transfer — as Idle.
	lifeNs int64
}

// foldAcct accumulates one worker's lap totals and loop lifetime into the
// run's breakdown.
func (st *runState) foldAcct(a metrics.StepBreakdown, life time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.acct.Compute += a.Compute
	st.acct.Comm += a.Comm
	st.acct.PollWait += a.PollWait
	st.acct.Idle += a.Idle
	st.acct.Ops += a.Ops
	st.lifeNs += life.Nanoseconds()
}

func isEdgeNode(n *graph.Node) bool {
	_, ok := n.Op().(graph.EdgeKernel)
	return ok
}

func isPollingNode(n *graph.Node) bool {
	_, ok := n.Op().(graph.PollingKernel)
	return ok
}

// Pure-polling backoff: when the ready queue holds only not-ready polling
// operators, a worker first spins through a short miss budget (data usually
// arrives within microseconds), then waits with the bound doubling up to a
// cap. With a LandedSignal Env the wait is a park that ends when a peer's
// write lands (the bound only caps it); without one it is a plain sleep. The
// polled flags are written remotely by one-sided RDMA, so the wait delays
// only this worker's next poll — it cannot delay the data — and the FIFO
// requeue keeps multiple starved pollers taking turns at the queue head
// instead of one monopolizing the misses.
//
// pollBatchMax caps the batched completion scan: when a worker pops a
// polling operator it drains every other queued polling operator (up to the
// cap) in the same lock acquisition and polls the whole set in one pass, so
// N starved receives cost one queue round-trip instead of N.
const (
	pollSpinBudget  = 16
	pollBackoffMin  = 5 * time.Microsecond
	pollBackoffMax  = time.Millisecond
	pollBackoffExpo = 8 // doublings until the cap is pinned
	pollBatchMax    = 64
)

func pollBackoff(misses int) time.Duration {
	exp := misses - pollSpinBudget - 1
	if exp < 0 {
		return 0
	}
	if exp > pollBackoffExpo {
		exp = pollBackoffExpo
	}
	d := pollBackoffMin << uint(exp)
	if d > pollBackoffMax {
		d = pollBackoffMax
	}
	return d
}

func (st *runState) fail(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err == nil {
		st.err = err
	}
	st.cond.Broadcast()
}

// park waits out one pure-polling backoff of at most d and returns how long
// the worker actually waited. With a LandedSignal Env it parks against seq,
// the landed sequence read before the batch was polled.
func (e *Executor) park(seq uint64, d time.Duration) time.Duration {
	start := time.Now()
	if e.landed != nil {
		e.landed.WaitLanded(seq, d)
	} else {
		time.Sleep(d)
	}
	return time.Since(start)
}

// canceled reports whether the run has failed; communication kernels poll
// it (via Context.Canceled) between retry attempts so in-flight transfers
// give up promptly once the iteration is dead instead of re-sending into
// memory the next iteration will own.
func (st *runState) canceled() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err != nil
}

// complete records a node's output and readies its consumers. It is safe to
// call from async completion callbacks (CQ poller goroutines).
func (st *runState) complete(n *graph.Node, out *tensor.Tensor, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.inflight--
	if err != nil {
		if st.err == nil {
			st.err = fmt.Errorf("exec: node %s: %w", n.Name(), err)
		}
		st.cond.Broadcast()
		return
	}
	st.values[n.ID()] = out
	st.pending--
	st.progress = time.Now()
	for _, c := range st.e.consume[n.ID()] {
		st.remaining[c.ID()]--
		if st.remaining[c.ID()] == 0 {
			st.queue = append(st.queue, c)
			if !isPollingNode(c) {
				st.nonPolling++
			}
		}
	}
	st.cond.Broadcast()
}

// next pops the next ready node, blocking until one is available, the run
// finishes, or an error occurs. ok=false means the worker should exit.
func (st *runState) next() (*graph.Node, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.err != nil || st.pending == 0 {
			return nil, false
		}
		if len(st.queue) > 0 {
			n := st.queue[0]
			st.queue = st.queue[1:]
			st.inflight++
			if !isPollingNode(n) {
				st.nonPolling--
			}
			return n, true
		}
		if st.inflight == 0 {
			// Nothing queued and nothing running: the graph is stuck
			// (should be impossible for a validated acyclic partition).
			st.err = fmt.Errorf("exec: scheduler stalled with %d nodes pending: %w", st.pending, ErrExec)
			return nil, false
		}
		st.cond.Wait()
	}
}

// grabPollBatch extracts up to max additional polling operators from the
// ready queue in one lock acquisition, marking each in flight, and appends
// them to batch. Non-polling nodes keep their relative order (and
// nonPolling count); only polling operators are pulled, so the batch poll
// below scans the whole starved set in one pass instead of cycling them
// through the queue one at a time.
func (st *runState) grabPollBatch(batch []*graph.Node, max int) []*graph.Node {
	st.mu.Lock()
	defer st.mu.Unlock()
	if max <= 0 || len(st.queue) == 0 {
		return batch
	}
	max += len(batch)
	kept := st.queue[:0]
	for _, n := range st.queue {
		if len(batch) < max && isPollingNode(n) {
			batch = append(batch, n)
			st.inflight++
		} else {
			kept = append(kept, n)
		}
	}
	tail := st.queue[len(kept):]
	for i := range tail {
		tail[i] = nil
	}
	st.queue = kept
	return batch
}

// requeueBatch puts not-ready polling nodes back at the tail (§4: "it simply
// re-enqueues this operator into the tail of the ready queue") under one
// lock. It reports whether non-polling work is queued: when only polling
// operators remain, callers back off instead of busy-spinning (polling "has
// a lower priority than other ready tasks ... to minimize its impact").
func (st *runState) requeueBatch(nodes []*graph.Node) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.inflight -= len(nodes)
	hadOther := st.nonPolling > 0
	st.queue = append(st.queue, nodes...)
	st.cond.Broadcast()
	return hadOther
}

// Run executes one iteration of the partition: feeds bind placeholders,
// fetches name the node outputs to return.
func (e *Executor) Run(iter int, feeds map[string]*tensor.Tensor, fetches ...string) (map[string]*tensor.Tensor, error) {
	if err := e.checkFeeds(feeds); err != nil {
		return nil, err
	}
	for _, f := range fetches {
		n, err := e.g.Node(f)
		if err != nil || !e.inPart[n.ID()] {
			return nil, fmt.Errorf("exec: fetch %q: %w", f, ErrFetch)
		}
	}
	st := &runState{
		e:         e,
		iter:      iter,
		feeds:     feeds,
		remaining: append([]int(nil), e.indeg...),
		values:    make([]*tensor.Tensor, len(e.inPart)),
		pollCtxs:  make([]*graph.Context, len(e.inPart)),
		pending:   len(e.nodes),
		progress:  time.Now(),
	}
	st.cond = sync.NewCond(&st.mu)
	for _, n := range e.nodes {
		if e.indeg[n.ID()] == 0 {
			st.queue = append(st.queue, n)
			if !isPollingNode(n) {
				st.nonPolling++
			}
		}
	}

	e.runMu.Lock()
	e.current = st
	e.runMu.Unlock()
	wallStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.worker(st, wallStart)
		}()
	}
	wg.Wait()
	// Quiesce: on a clean run every node completed, but on a failed one the
	// workers exit while asynchronous operations may still be in flight.
	// Wait for their completion callbacks before returning — the caller will
	// reuse feeds, slots, and arena memory for the next iteration, and an
	// async transfer still running against this one would race it. The wait
	// is bounded: Context.Canceled reports the failure, so retried transfers
	// give up within one backoff period, and FailPending (below) releases
	// completions that are parked rather than running.
	st.mu.Lock()
	failed := st.err
	st.mu.Unlock()
	if failed != nil {
		// A completion can also be *parked* in the environment waiting for
		// sibling work the dead iteration will never dispatch — e.g. a
		// member staged into a coalesced batch that can no longer fill.
		// No retry loop ever polls the cancel flag on its behalf, so ask
		// the environment to fail those now; otherwise the drain below
		// would wait on them forever.
		if f, ok := e.cfg.Env.(interface{ FailPending(error) }); ok {
			f.FailPending(failed)
		}
	}
	st.mu.Lock()
	for st.inflight > 0 {
		st.cond.Wait()
	}
	st.mu.Unlock()
	wall := time.Since(wallStart)
	st.mu.Lock()
	breakdown := st.acct
	st.mu.Unlock()
	breakdown.Wall = wall
	breakdown.Workers = e.cfg.Workers
	breakdown.CommInflight = time.Duration(st.inflightNsAt.Load())
	// Workers that exited before the slowest sibling spent the difference
	// waiting for the run to drain; that tail is idle time of the step.
	if tail := time.Duration(e.cfg.Workers)*wall - time.Duration(st.lifeNs); tail > 0 {
		breakdown.Idle += tail
	}
	e.runMu.Lock()
	e.current = nil
	e.lastRun = breakdown
	e.runMu.Unlock()

	st.mu.Lock()
	err := st.err
	st.mu.Unlock()
	if err != nil {
		if e.recycle != nil {
			e.recycle.finish(false, nil)
		}
		return nil, err
	}
	out := make(map[string]*tensor.Tensor, len(fetches))
	for _, f := range fetches {
		n, _ := e.g.Node(f)
		out[f] = st.values[n.ID()]
	}
	if e.recycle != nil {
		fetched := make([]*tensor.Tensor, 0, len(out))
		for _, t := range out {
			fetched = append(fetched, t)
		}
		e.recycle.finish(true, fetched)
	}
	return out, nil
}

// worker drains the ready queue. Every moment from the run's wall start is
// attributed to exactly one step-breakdown category via lap timestamps —
// goroutine start latency, scheduler waits, and bookkeeping to Idle, Poll
// calls and backoff sleeps to PollWait, kernel execution to Compute or (for
// EdgeKernel operators) Comm — so the per-worker totals sum back to this
// worker's share of the run wall and the consistency suite can check that
// the books balance. The lap opens at startAt (the wall start), not at the
// goroutine's first instruction: on a loaded box workers are queued runnable
// for a while before they first run, and that wait is idle time the step
// really spent.
func (e *Executor) worker(st *runState, startAt time.Time) {
	var acct metrics.StepBreakdown
	defer func() { st.foldAcct(acct, time.Since(startAt)) }()
	lap := startAt
	tick := func() time.Duration {
		now := time.Now()
		d := now.Sub(lap)
		lap = now
		return d
	}
	pollMisses := 0
	// Poll-pass scratch, reused across passes: a starved receive is polled
	// many times per step, and each pass must not allocate.
	var (
		batch   []*graph.Node
		ctxs    []*graph.Context
		ready   []int
		waiting []*graph.Node
	)
	for {
		n, ok := st.next()
		acct.Idle += tick() // scheduler wait + queue bookkeeping
		if !ok {
			return
		}

		// Polling-async phase 1, batched: when the head is a polling
		// operator, drain every other queued polling operator (one lock)
		// and poll the whole set in one pass. Misses go back to the tail
		// together (one lock); hits execute right here. N starved receives
		// cost one queue round-trip and one backoff decision per pass
		// instead of N.
		if _, isPolling := n.Op().(graph.PollingKernel); isPolling {
			// Read the landed sequence before polling: a write landing
			// after this point ends the park below at once.
			var landed uint64
			if e.landed != nil {
				landed = e.landed.LandedSeq()
			}
			batch = st.grabPollBatch(append(batch[:0], n), pollBatchMax-1)
			e.pollBatchHist.Record(int64(len(batch)))
			ctxs, ready, waiting = ctxs[:0], ready[:0], waiting[:0]
			var pollErr error
			var errNode *graph.Node
			for i, pn := range batch {
				ctxs = append(ctxs, e.pollContext(st, pn))
				hit, err := pn.Op().(graph.PollingKernel).Poll(ctxs[i])
				if err != nil {
					errNode, pollErr = pn, err
					waiting = append(waiting, batch[i+1:]...) // unpolled rest
					break
				}
				if hit {
					ready = append(ready, i)
				} else {
					waiting = append(waiting, pn)
				}
			}
			acct.PollWait += tick()
			if pollErr != nil {
				// The failed node carries the error; everything else —
				// including ready-but-unexecuted hits, which will poll
				// ready again — goes back so its completion stays owned
				// by the queue.
				for _, i := range ready {
					waiting = append(waiting, batch[i])
				}
				if len(waiting) > 0 {
					st.requeueBatch(waiting)
				}
				st.complete(errNode, nil, pollErr)
				return
			}
			if len(ready) == 0 {
				e.stats.recordPollMiss(n.Op().Name())
				if d := e.cfg.PollTimeout; d > 0 {
					st.mu.Lock()
					stalled := time.Since(st.progress) > d
					pending := st.pending
					// Queued + batched polling nodes minus this one = how
					// many other polling operators are also spinning on
					// unarrived data — distinguishes one dead edge from a
					// task-wide partition.
					polling := len(st.queue) - st.nonPolling + len(waiting) - 1
					st.mu.Unlock()
					if stalled {
						e.stats.recordPollTimeout(n.Op().Name())
						acct.PollWait += tick()
						if len(waiting) > 1 {
							st.requeueBatch(waiting[1:]) // waiting[0] == n
						}
						st.complete(n, nil, fmt.Errorf("%w: %s made no progress for %v at iter %d with %d nodes pending, %d other polling operators starved (peer dead or network partitioned?)",
							ErrPollTimeout, n.Name(), d, st.iter, pending, polling))
						return
					}
				}
				hadOther := st.requeueBatch(waiting)
				if hadOther {
					pollMisses = 0
				} else {
					// Pure-polling queue: back off instead of spinning
					// ("polling has a lower priority ... to minimize its
					// impact").
					pollMisses++
					if d := pollBackoff(pollMisses); d > 0 {
						e.stats.recordPollBackoff(n.Op().Name())
						e.pollWaitHist.Record(e.park(landed, d).Nanoseconds())
					}
				}
				acct.PollWait += tick() // requeue + backoff park
				continue
			}
			if len(waiting) > 0 {
				st.requeueBatch(waiting)
			}
			pollMisses = 0
			acct.PollWait += tick() // requeue bookkeeping
			for _, i := range ready {
				e.execNode(st, batch[i], ctxs[i], &acct, tick)
			}
			continue
		}
		ctx := e.newContext(st, n)
		acct.Idle += tick() // context assembly
		pollMisses = 0
		e.execNode(st, n, ctx, &acct, tick)
	}
}

// execNode is phase 2: execute one ready node asynchronously if supported,
// else synchronously. tick attributes the elapsed lap to the worker's
// breakdown (Comm for EdgeKernel operators, Compute otherwise).
func (e *Executor) execNode(st *runState, n *graph.Node, ctx *graph.Context, acct *metrics.StepBreakdown, tick func() time.Duration) {
	isEdge := isEdgeNode(n)
	start := time.Now()
	var endSpan func()
	if e.cfg.Trace != nil {
		endSpan = e.cfg.Trace.Span(e.traceLane(), "exec", n.Op().Name(), n.Name(),
			map[string]any{"iter": st.iter})
	}
	switch k := n.Op().(type) {
	case graph.AsyncKernel:
		k.ComputeAsync(ctx, func(err error) {
			d := time.Since(start)
			e.stats.recordExec(n.Op().Name(), d)
			metrics.AddKernelTime(n.Op().Name(), d)
			if isEdge {
				st.inflightNsAt.Add(d.Nanoseconds())
			}
			if endSpan != nil {
				endSpan()
			}
			st.complete(n, ctx.Output, err)
		})
		// The dispatch portion occupied this worker; the rest of the
		// operation's latency flies concurrently and lands in
		// CommInflight via the callback above.
		if isEdge {
			acct.Comm += tick()
		} else {
			acct.Compute += tick()
		}
		acct.Ops++
	case graph.Kernel:
		err := k.Compute(ctx)
		d := time.Since(start)
		e.stats.recordExec(n.Op().Name(), d)
		metrics.AddKernelTime(n.Op().Name(), d)
		if endSpan != nil {
			endSpan()
		}
		if isEdge {
			acct.Comm += tick()
		} else {
			acct.Compute += tick()
		}
		acct.Ops++
		st.complete(n, ctx.Output, err)
		acct.Idle += tick() // completion bookkeeping
	default:
		st.complete(n, nil, fmt.Errorf("exec: op %s has no kernel: %w", n.Op().Name(), ErrExec))
	}
}

// pollContext returns a polling node's context for this iteration: built on
// its first poll, then reused by every later poll and by its execution. No
// lock guards the slot: a polling node is held by one worker at a time, and
// every handoff between workers goes through st.mu (requeue, grab, next).
func (e *Executor) pollContext(st *runState, n *graph.Node) *graph.Context {
	ctx := st.pollCtxs[n.ID()]
	if ctx == nil {
		ctx = e.newContext(st, n)
		st.pollCtxs[n.ID()] = ctx
	}
	return ctx
}

func (e *Executor) newContext(st *runState, n *graph.Node) *graph.Context {
	inputs := make([]*tensor.Tensor, len(n.Inputs()))
	st.mu.Lock()
	for i, in := range n.Inputs() {
		inputs[i] = st.values[in.ID()]
	}
	st.mu.Unlock()
	allocIdx := 0
	ctx := &graph.Context{
		Node:     n,
		Iter:     st.iter,
		Inputs:   inputs,
		Vars:     e.cfg.Vars,
		Feeds:    st.feeds,
		Env:      e.cfg.Env,
		Canceled: st.canceled,
	}
	ctx.Alloc = func(dt tensor.DType, shape tensor.Shape) (*tensor.Tensor, error) {
		idx := allocIdx
		allocIdx++
		if e.recycle != nil {
			if t := e.recycle.take(n.ID(), idx, dt, shape); t != nil {
				return t, nil
			}
		}
		t, err := e.cfg.Policy.Alloc(n, st.iter, idx, dt, shape)
		if err == nil && e.recycle != nil {
			e.recycle.track(n.ID(), idx, t)
		}
		return t, err
	}
	return ctx
}

func (e *Executor) checkFeeds(feeds map[string]*tensor.Tensor) error {
	for name, t := range feeds {
		n, err := e.g.Node(name)
		if err != nil {
			return fmt.Errorf("exec: feed %q: %w", name, ErrFeed)
		}
		sig := n.Sig()
		if t.DType() != sig.DType {
			return fmt.Errorf("exec: feed %q dtype %v, want %v: %w", name, t.DType(), sig.DType, ErrFeed)
		}
		if t.Shape().Rank() != sig.Shape.Rank() {
			return fmt.Errorf("exec: feed %q rank %v, want %v: %w", name, t.Shape(), sig.Shape, ErrFeed)
		}
		for i, d := range sig.Shape {
			if d >= 0 && t.Shape()[i] != d {
				return fmt.Errorf("exec: feed %q dim %d is %d, want %d: %w",
					name, i, t.Shape()[i], d, ErrFeed)
			}
		}
	}
	return nil
}
