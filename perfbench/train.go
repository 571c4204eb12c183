package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/distributed"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Training workloads: a closed loop of Cluster.Step calls, each issued as
// soon as the previous one returned. Every step's fetched losses are kept
// and compared bit for bit against a gRPC.TCP run of the same model, seed
// and inputs, computed after the timed region.

const (
	setupReps   = 9  // set-ups per run; setup_s is their median
	warmupSteps = 5  // untimed steps between set-up and the timed region
	feedPool    = 16 // distinct generated input sets of train-ps-bulk, cycled by step
)

// trainWorkload is one training workload: how to build its model from a
// seed, and its step-latency limit.
type trainWorkload struct {
	name  string
	build func(seed int64) (*trainModel, error)
	// sloMs is the step-latency limit max_qps_at_slo counts against.
	sloMs float64
}

// trainModel is one freshly built training job with its generated inputs.
type trainModel struct {
	builder *graph.Builder
	vars    []distributed.VarInit
	cfg     distributed.Config
	feeds   []map[string]map[string]*tensor.Tensor // feedPool input sets
	samples []int                                  // samples in each input set
	fetches map[string][]string
	losses  [][2]string // (task, node) of every fetched loss, in hash order
	// ladder describes the workload's tensors for the layer ladder.
	ladder ladderSizes
}

// feedsFor returns step i's inputs.
func (m *trainModel) feedsFor(i int) map[string]map[string]*tensor.Tensor {
	return m.feeds[i%len(m.feeds)]
}

var psBulk = trainWorkload{name: "train-ps-bulk", build: buildPSBulk, sloMs: 250}
var dynFine = trainWorkload{name: "train-dyn-fine", build: buildDynFine, sloMs: 50}

// buildPSBulk is the PS data-parallel MLP: 2 workers and 1 PS, every
// weight and gradient tensor ≥1 MiB (w1 and w2 1 MiB each), weights striped
// over 4 lanes and the bias tensors coalesced.
func buildPSBulk(seed int64) (*trainModel, error) {
	const in, hidden, classes, batch, workers = 256, 1024, 256, 8, 2
	mc := distributed.MLPConfig{Workers: workers, PSCount: 1, Batch: batch,
		In: in, Hidden: hidden, Classes: classes, LR: 0.01}
	job, err := distributed.BuildMLPTraining(mc, seed)
	if err != nil {
		return nil, err
	}
	m := &trainModel{
		builder: job.Builder,
		vars:    job.VarInits,
		cfg: distributed.Config{Kind: distributed.RDMA, ArenaBytes: 32 << 20,
			Transfer: rdma.TransferOpts{Stripes: 4, CoalesceThreshold: 64 << 10}},
		fetches: map[string][]string{},
		ladder: ladderSizes{edgeBytes: in * hidden * 4, lanes: 4,
			coalesce: []int{hidden * 4, classes * 4}, matmul: [3]int{batch, in, hidden},
			model: [3]int{in, hidden, classes}},
	}
	rng := rand.New(rand.NewSource(seed + 101))
	for i := 0; i < feedPool; i++ {
		set := map[string]map[string]*tensor.Tensor{}
		for k, task := range job.WorkerTasks {
			x := tensor.New(tensor.Float32, batch, in)
			labels := tensor.New(tensor.Int32, batch)
			tensor.RandomUniform(x, rng, 1)
			tensor.RandomLabels(labels, rng, classes)
			xn, ln := job.FeedNames(k)
			set[task] = map[string]*tensor.Tensor{xn: x, ln: labels}
		}
		m.feeds = append(m.feeds, set)
		m.samples = append(m.samples, batch*workers)
	}
	for k, task := range job.WorkerTasks {
		m.fetches[task] = []string{job.LossName(k)}
		m.losses = append(m.losses, [2]string{task, job.LossName(k)})
	}
	return m, nil
}

// buildDynFine is a model-parallel chain of narrow tanh layers, two per
// stage over three stages, whose batch size is drawn per step: every
// activation crossing a cut, and its gradient crossing back, has a
// dynamic shape and goes over the §3.3 Dyn protocol.
func buildDynFine(seed int64) (*trainModel, error) {
	const stages, perStage, width, classes = 3, 2, 64, 8
	const minBatch, maxBatch = 4, 32
	b := graph.NewBuilder()
	stage := func(s int) string { return fmt.Sprintf("stage%d", s) }
	b.OnTask(stage(0))
	h := b.Placeholder("x", graph.Dyn(tensor.Float32, -1, width))
	var vars []*graph.Node
	for s := 0; s < stages; s++ {
		b.OnTask(stage(s))
		for l := 0; l < perStage; l++ {
			w := b.Variable(fmt.Sprintf("w%d_%d", s, l), graph.Static(tensor.Float32, width, width))
			vars = append(vars, w)
			h = b.Tanh(fmt.Sprintf("h%d_%d", s, l), b.MatMul(fmt.Sprintf("mm%d_%d", s, l), h, w))
		}
	}
	last := stage(stages - 1)
	wout := b.Variable("wout", graph.Static(tensor.Float32, width, classes))
	vars = append(vars, wout)
	labels := b.Placeholder("labels", graph.Dyn(tensor.Int32, -1))
	loss := b.SoftmaxXent("loss", b.MatMul("mm_out", h, wout), labels)
	grads, err := graph.Gradients(b, loss, vars)
	if err != nil {
		return nil, err
	}
	for _, v := range vars {
		b.OnTask(v.Task())
		b.ApplySGD("apply_"+v.Name(), v, grads[v], 0.05)
	}
	if err := b.Err(); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed + 202))
	m := &trainModel{
		builder: b,
		cfg:     distributed.Config{Kind: distributed.RDMA, ArenaBytes: 8 << 20},
		fetches: map[string][]string{last: {"loss"}},
		losses:  [][2]string{{last, "loss"}},
	}
	for _, v := range vars {
		m.vars = append(m.vars, distributed.VarInit{Name: v.Name(), Init: glorot(rng)})
	}
	// Every batch size in [minBatch, maxBatch] once, in a seeded order: the
	// per-step sizes vary while the mean stays the same for every seed.
	total := 0
	for _, i := range rng.Perm(maxBatch - minBatch + 1) {
		batch := minBatch + i
		x := tensor.New(tensor.Float32, batch, width)
		l := tensor.New(tensor.Int32, batch)
		tensor.RandomUniform(x, rng, 1)
		tensor.RandomLabels(l, rng, classes)
		m.feeds = append(m.feeds, map[string]map[string]*tensor.Tensor{
			stage(0): {"x": x}, last: {"labels": l}})
		m.samples = append(m.samples, batch)
		total += batch
	}
	mean := total / len(m.feeds)
	m.ladder = ladderSizes{edgeBytes: mean * width * 4, lanes: 1, dyn: true,
		coalesce: []int{mean * width * 4}, matmul: [3]int{mean, width, width},
		model: [3]int{width, width, classes}}
	return m, nil
}

// glorot returns an initializer drawing from rng when it runs, so the
// draw order is the variable order.
func glorot(rng *rand.Rand) func(*tensor.Tensor) {
	return func(t *tensor.Tensor) { tensor.GlorotInit(t, rng) }
}

// setupTimes are one set-up's phases.
type setupTimes struct{ launch, init, first time.Duration }

func (s setupTimes) total() time.Duration { return s.launch + s.init + s.first }

// setUp builds the model, launches it under cfg, initializes variables and
// runs step 0 (the allocation-site tracing step). It returns the cluster
// ready for step 1 and the losses of step 0.
func setUp(w trainWorkload, seed int64, kind distributed.Kind, rec *trace.Recorder) (
	*trainModel, *distributed.Cluster, setupTimes, []uint32, error) {
	m, err := w.build(seed)
	if err != nil {
		return nil, nil, setupTimes{}, nil, err
	}
	cfg := m.cfg
	cfg.Kind = kind
	cfg.Trace = rec
	var st setupTimes
	t0 := time.Now()
	end := rec.Span("bench", "distributed", "distributed", "Launch", nil)
	cl, err := distributed.Launch(m.builder, cfg)
	end()
	st.launch = time.Since(t0)
	if err != nil {
		return nil, nil, st, nil, fmt.Errorf("launch: %w", err)
	}
	t1 := time.Now()
	end = rec.Span("bench", "distributed", "distributed", "InitAll", nil)
	for _, v := range m.vars {
		if err = cl.InitVariable(v.Name, v.Init); err != nil {
			break
		}
	}
	end()
	st.init = time.Since(t1)
	if err != nil {
		cl.Close()
		return nil, nil, st, nil, fmt.Errorf("init: %w", err)
	}
	t2 := time.Now()
	end = rec.Span("bench", "distributed", "distributed", "Cluster.Step", map[string]any{"step": 0})
	out, err := cl.Step(0, m.feedsFor(0), m.fetches)
	end()
	st.first = time.Since(t2)
	if err != nil {
		cl.Close()
		return nil, nil, st, nil, fmt.Errorf("step 0: %w", err)
	}
	return m, cl, st, lossBits(m, out), nil
}

// lossBits extracts a step's fetched losses as raw float32 bits.
func lossBits(m *trainModel, out map[string]map[string]*tensor.Tensor) []uint32 {
	bits := make([]uint32, 0, len(m.losses))
	for _, l := range m.losses {
		t := out[l[0]][l[1]]
		if t == nil || t.NumElements() == 0 {
			bits = append(bits, math.Float32bits(float32(math.NaN())))
			continue
		}
		bits = append(bits, math.Float32bits(t.Float32s()[0]))
	}
	return bits
}

// segment is one timed closed loop of steps on one cluster.
type segment struct {
	steps  int // timed steps; losses also holds the warm-up steps'
	failed int64
	stepMs []float64 // Cluster.Step wall time
	reqMs  []float64 // from issuing the step to its losses extracted
	gapS   []float64 // seconds from the previous step's return to this one's
	batch  []float64 // samples in each step
	fastMs []float64 // fastest task's scheduler wall per step
	slowMs []float64 // slowest task's scheduler wall per step
	losses [][]uint32
	heapMB float64
	err    error

	comm0, comm1 map[string]metrics.CommSnapshot
	sum0, sum1   map[string]metrics.StepSummary
	hist0, hist1 map[string]metrics.SetSnapshot
	allocB       float64 // heap bytes allocated per step
	allocs       float64 // heap allocations per step
}

// runSegment runs warm-up steps, then steps for d, starting at iteration
// next. rec, if non-nil, receives one span per Cluster.Step.
func runSegment(cl *distributed.Cluster, m *trainModel, next int, d time.Duration,
	rec *trace.Recorder) *segment {
	seg := &segment{}
	step := func(i int) bool {
		issued := time.Now()
		end := rec.Span("bench", "distributed", "distributed", "Cluster.Step", map[string]any{"step": i})
		out, err := cl.Step(i, m.feedsFor(i), m.fetches)
		end()
		stepped := time.Since(issued)
		if err != nil {
			seg.failed++
			seg.err = fmt.Errorf("step %d: %w", i, err)
			return false
		}
		seg.losses = append(seg.losses, lossBits(m, out))
		seg.reqMs = append(seg.reqMs, ms(time.Since(issued)))
		seg.stepMs = append(seg.stepMs, ms(stepped))
		return true
	}
	for i := 0; i < warmupSteps; i++ {
		if !step(next) {
			return seg
		}
		next++
	}
	seg.reqMs, seg.stepMs = seg.reqMs[:0], seg.stepMs[:0]
	seg.comm0, seg.sum0, seg.hist0 = cl.MetricsSnapshot(), cl.StepSummaries(), cl.HistSnapshots()
	runtime.GC() // drop earlier set-ups' garbage, so peak heap is this run's
	heap := startHeapSampler()
	allocs := startAllocs()
	start := time.Now()
	last := start
	for last.Sub(start) < d {
		if !step(next) {
			break
		}
		now := time.Now()
		seg.gapS = append(seg.gapS, now.Sub(last).Seconds())
		last = now
		seg.batch = append(seg.batch, float64(m.samples[next%len(m.samples)]))
		fast, slow := taskWallSpread(cl)
		seg.fastMs = append(seg.fastMs, fast)
		seg.slowMs = append(seg.slowMs, slow)
		seg.steps++
		next++
	}
	seg.allocB, seg.allocs = allocs.perOp(seg.steps)
	seg.heapMB = heap.finish()
	seg.comm1, seg.sum1, seg.hist1 = cl.MetricsSnapshot(), cl.StepSummaries(), cl.HistSnapshots()
	return seg
}

// taskWallSpread returns the fastest and slowest task's wall time (ms) of
// the step that just completed.
func taskWallSpread(cl *distributed.Cluster) (fast, slow float64) {
	first := true
	for _, s := range cl.StepSummaries() {
		w := ms(s.Last.Wall)
		if first || w < fast {
			fast = w
		}
		if first || w > slow {
			slow = w
		}
		first = false
	}
	return fast, slow
}

// reference replays steps 0..n-1 under gRPC.TCP from the same seed and
// returns every step's losses.
func reference(w trainWorkload, seed int64, n int) ([][]uint32, error) {
	m, cl, _, first, err := setUp(w, seed, distributed.GRPCTCP, nil)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	defer cl.Close()
	out := [][]uint32{first}
	for i := 1; i < n; i++ {
		res, err := cl.Step(i, m.feedsFor(i), m.fetches)
		if err != nil {
			return nil, fmt.Errorf("reference step %d: %w", i, err)
		}
		out = append(out, lossBits(m, res))
	}
	return out, nil
}

// checkLosses compares a run's loss sequence (step 0 onward) with the
// reference, bit for bit.
func checkLosses(rep *report, what string, got, want [][]uint32) {
	for i, g := range got {
		if i >= len(want) {
			rep.check(false, "%s: no reference for step %d", what, i)
			return
		}
		for j := range g {
			if g[j] != want[i][j] {
				rep.check(false, "%s: step %d loss %d is %v, gRPC.TCP reference %v", what, i, j,
					math.Float32frombits(g[j]), math.Float32frombits(want[i][j]))
				return
			}
		}
	}
}

// commTotal sums a counter over tasks between two snapshots.
func commTotal(a, b map[string]metrics.CommSnapshot, f func(metrics.CommSnapshot) int64) float64 {
	var n int64
	for task, s := range b {
		n += f(s) - f(a[task])
	}
	return float64(n)
}

// checkCounters enforces the workload's protocol invariants: zero-copy
// sends on the bulk workload, and every Dyn edge transferring on every
// step of the fine-grained one.
func checkCounters(rep *report, w trainWorkload, cl *distributed.Cluster, seg *segment) {
	switch w.name {
	case psBulk.name:
		zc := commTotal(seg.comm0, seg.comm1, func(s metrics.CommSnapshot) int64 { return s.ZeroCopyOps })
		rep.check(zc > 0, "%s: no zero-copy sends in the timed region", w.name)
	case dynFine.name:
		edges := len(cl.Result().DynamicEdges())
		dyn := commTotal(seg.comm0, seg.comm1, func(s metrics.CommSnapshot) int64 { return s.DynTransfers })
		rep.check(edges > 0 && dyn >= float64(edges*seg.steps),
			"%s: %v Dyn transfers over %d steps of %d dynamic edges", w.name, dyn, seg.steps, edges)
	}
}

// runTrain runs one training workload.
func runTrain(w trainWorkload, p params, rep *report) error {
	var setups []setupTimes
	var m *trainModel
	var cl *distributed.Cluster
	var step0 []uint32
	for i := 0; i < setupReps; i++ {
		if cl != nil {
			cl.Close()
		}
		runtime.GC() // each set-up starts from a clean heap, as in a fresh process
		var st setupTimes
		var err error
		m, cl, st, step0, err = setUp(w, p.seed, distributed.RDMA, nil)
		if err != nil {
			return err
		}
		setups = append(setups, st)
	}
	// Step 1 alone shows whether the zero-copy path took over after the
	// tracing step.
	zc0 := cl.MetricsSnapshot()
	out, err := cl.Step(1, m.feedsFor(1), m.fetches)
	if err != nil {
		cl.Close()
		return fmt.Errorf("step 1: %w", err)
	}
	step1 := lossBits(m, out)
	if w.name == psBulk.name {
		zc := commTotal(zc0, cl.MetricsSnapshot(), func(s metrics.CommSnapshot) int64 { return s.ZeroCopyOps })
		rep.check(zc > 0, "%s: no zero-copy sends on step 1", w.name)
	}
	var setupS []float64
	for _, st := range setups {
		setupS = append(setupS, st.total().Seconds())
	}

	if !p.trace {
		seg := runSegment(cl, m, 2, p.duration, nil)
		checkCounters(rep, w, cl, seg)
		cl.Close()
		if seg.err != nil {
			rep.check(false, "%s: %v", w.name, seg.err)
		}
		rep.attempted, rep.failed = int64(seg.steps)+seg.failed, seg.failed
		all := append([][]uint32{step0, step1}, seg.losses...)
		ref, err := reference(w, p.seed, len(all))
		if err != nil {
			return err
		}
		checkLosses(rep, w.name, all, ref)
		reportTrainE2E(rep, w, m, seg, median(setupS))
		return nil
	}
	return runTrainTraced(w, p, rep, m, cl, setups, [][]uint32{step0, step1})
}

// reportTrainE2E sets the end-to-end metrics of a training segment. Rates
// are medians over windows of one input cycle each, and tail percentiles
// medians over windows of the timed region.
func reportTrainE2E(rep *report, w trainWorkload, m *trainModel, seg *segment, setupS float64) {
	within := make([]float64, len(seg.reqMs))
	for i, v := range seg.reqMs {
		if v <= w.sloMs {
			within[i] = 1
		}
	}
	cycle := len(m.samples)
	rep.set("samples_per_s", "1/s", cycleRate(seg.batch, seg.gapS, cycle))
	rep.set("step_ms_p50", "ms", median(seg.stepMs))
	rep.set("step_ms_p90", "ms", tail(seg.stepMs, 0.90))
	rep.set("query_ms_p50", "ms", median(seg.reqMs))
	rep.set("query_ms_p99", "ms", tail(seg.reqMs, 0.99))
	rep.set("max_qps_at_slo", "1/s", cycleRate(within, seg.gapS, cycle))
	rep.set("publish_ms_p50", "ms", median(seg.fastMs))
	rep.set("fresh_ms_p50", "ms", median(seg.slowMs))
	rep.set("setup_s", "s", setupS)
	rep.set("peak_heap_mb", "MiB", seg.heapMB)
	rep.set("success_ratio", "ratio", float64(seg.steps)/float64(seg.steps+int(seg.failed)))
}

// computeOnly runs the workload's model as one task with no cut edges and
// returns its median step time (ms) over d.
func computeOnly(w trainWorkload, seed int64, d time.Duration) (float64, error) {
	m, err := w.build(seed)
	if err != nil {
		return 0, err
	}
	g, err := m.builder.Finish()
	if err != nil {
		return 0, err
	}
	vs := exec.NewVarStore()
	for _, v := range m.vars {
		n, err := g.Node(v.Name)
		if err != nil {
			return 0, err
		}
		t := tensor.New(n.Sig().DType, n.Sig().Shape...)
		if v.Init != nil {
			v.Init(t)
		}
		if err := vs.Create(v.Name, t); err != nil {
			return 0, err
		}
	}
	ex, err := exec.New(g, exec.Config{Vars: vs})
	if err != nil {
		return 0, err
	}
	var fetches []string
	for _, l := range m.losses {
		fetches = append(fetches, l[1])
	}
	var times []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		feeds := map[string]*tensor.Tensor{}
		for _, f := range m.feedsFor(i) {
			for k, v := range f {
				feeds[k] = v
			}
		}
		t0 := time.Now()
		if _, err := ex.Run(i, feeds, fetches...); err != nil {
			return 0, fmt.Errorf("compute-only step %d: %w", i, err)
		}
		if i > 0 {
			times = append(times, ms(time.Since(t0)))
		}
	}
	return median(times), nil
}
