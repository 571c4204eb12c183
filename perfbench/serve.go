package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/distributed"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// serve-publish: a two-replica ServingFleet answers an open-loop query
// stream while the trainer side publishes a new weight version every
// publishEvery. One generator goroutine issues each query at its due time
// on a ladder of fixed rates; each query runs in its own goroutine because
// Query blocks. Latency is timed from when a query was due, so generator
// lag counts against it.

const (
	srvBatch, srvIn, srvHidden, srvClasses = 4, 384, 512, 128 // ~1 MiB weight bank
	srvReplicas                            = 2
	srvPool                                = 16 // distinct query vectors
	publishEvery                           = 25 * time.Millisecond
	srvSloMs                               = 50.0
)

// ladderStep is one open-loop rate (queries/s) and its share of the run.
type ladderStep struct{ rate, share float64 }

// rateLadder is the open-loop ladder. The nominal rate, whose latency the
// query_ms metrics report, holds most of the run. It sits between two
// hazards of a shared 2-vCPU VM: at 500 queries/s the fleet's CPUs idle
// between queries, so latency hinges on how fast the host wakes an idle
// vCPU; at 2000/s the fleet runs near its capacity (which lies between 2000
// and 3000 queries/s), so a burst of host CPU steal tips it into a growing
// backlog. The 2000/s rung is what max_qps_at_slo reads when capacity holds.
// The last rate is a short overload probe that fails the latency limit
// unless capacity more than triples; it is kept short so its backlog stays
// small.
var rateLadder = []ladderStep{{500, 0.05}, {1000, 0.81}, {2000, 0.1}, {8000, 0.04}}

const nominalRate = 1000

// weightGen makes weight version v deterministically from the seed:
// w_v = base + v·delta, elementwise, for every variable.
type weightGen struct {
	names       []string
	base, delta map[string][]float32
}

func newWeightGen(seed int64, vs *exec.VarStore, names []string) (*weightGen, error) {
	rng := rand.New(rand.NewSource(seed + 303))
	g := &weightGen{names: names, base: map[string][]float32{}, delta: map[string][]float32{}}
	for _, n := range names {
		t, err := vs.VarTensor(n)
		if err != nil {
			return nil, err
		}
		b := tensor.New(tensor.Float32, t.Shape()...)
		d := tensor.New(tensor.Float32, t.Shape()...)
		tensor.GlorotInit(b, rng)
		tensor.RandomUniform(d, rng, 1e-3)
		g.base[n], g.delta[n] = b.Float32s(), d.Float32s()
	}
	return g, nil
}

// fill writes version v into the store's variables.
func (g *weightGen) fill(vs *exec.VarStore, v uint64) error {
	fv := float32(v)
	for _, n := range g.names {
		t, err := vs.VarTensor(n)
		if err != nil {
			return err
		}
		dst, b, d := t.Float32s(), g.base[n], g.delta[n]
		for i := range dst {
			dst[i] = b[i] + fv*d[i]
		}
	}
	return nil
}

var srvVarNames = []string{"w1", "b1", "w2", "b2"}

// newMLPVars creates a store with serve.MLPForward's variables.
func newMLPVars(in, hidden, classes int) (*exec.VarStore, error) {
	vs := exec.NewVarStore()
	shapes := map[string][]int{"w1": {in, hidden}, "b1": {hidden},
		"w2": {hidden, classes}, "b2": {classes}}
	for _, n := range srvVarNames {
		if err := vs.Create(n, tensor.New(tensor.Float32, shapes[n]...)); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// srvWorld is one fleet with its trainer-side store and inputs.
type srvWorld struct {
	fleet *distributed.ServingFleet
	vars  *exec.VarStore
	gen   *weightGen
	pool  [][]float32
	met   *metrics.Serve
	hists *metrics.Set
	next  uint64 // next version to publish
}

// setUpServe builds the fleet, publishes version 1 and waits for the first
// served query. It returns the world and the set-up time.
func setUpServe(seed int64) (*srvWorld, time.Duration, error) {
	spec := serve.MLPForward(srvBatch, srvIn, srvHidden, srvClasses)
	vs, err := newMLPVars(srvIn, srvHidden, srvClasses)
	if err != nil {
		return nil, 0, err
	}
	gen, err := newWeightGen(seed, vs, srvVarNames)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(seed + 404))
	w := &srvWorld{vars: vs, gen: gen, met: &metrics.Serve{}, hists: &metrics.Set{}, next: 1}
	for i := 0; i < srvPool; i++ {
		x := tensor.New(tensor.Float32, srvIn)
		tensor.RandomUniform(x, rng, 1)
		w.pool = append(w.pool, x.Float32s())
	}
	start := time.Now()
	w.fleet, err = distributed.NewServingFleet(distributed.ServingConfig{
		Replicas: srvReplicas, Spec: spec, Vars: vs,
		MaxQueue:  1 << 14,
		Heartbeat: distributed.HeartbeatConfig{Timeout: time.Second},
		Metrics:   w.met, Hists: w.hists,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("serving fleet: %w", err)
	}
	if _, err := w.publish(nil); err != nil {
		w.fleet.Close()
		return nil, 0, err
	}
	for {
		res, err := w.fleet.Query(w.pool[0])
		if err == nil && res.Version >= 1 {
			break
		}
		if time.Since(start) > 10*time.Second {
			w.fleet.Close()
			return nil, 0, fmt.Errorf("fleet never served version 1: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return w, time.Since(start), nil
}

// publishTimes is one trainer cycle: generating the version's weights
// then publishing them.
type publishTimes struct {
	version        uint64
	cycle, publish time.Duration
	returned       time.Time
}

// publish generates and publishes the next version.
func (w *srvWorld) publish(rec *trace.Recorder) (publishTimes, error) {
	v := w.next
	w.next++
	start := time.Now()
	if err := w.gen.fill(w.vars, v); err != nil {
		return publishTimes{}, err
	}
	p0 := time.Now()
	end := rec.Span("bench", "serve", "serve", "ServingFleet.Publish", map[string]any{"version": v})
	got, err := w.fleet.Publish()
	end()
	now := time.Now()
	if err != nil {
		return publishTimes{}, fmt.Errorf("publish v%d: %w", v, err)
	}
	if got != v {
		return publishTimes{}, fmt.Errorf("publish returned v%d, want v%d", got, v)
	}
	return publishTimes{version: v, cycle: now.Sub(start), publish: now.Sub(p0), returned: now}, nil
}

// queryRec is one issued query's outcome.
type queryRec struct {
	due, sent, done time.Time
	qidx            int
	version         uint64
	staleness       int64
	hash            uint64
	err             error
}

// rung is one fixed rate of the ladder.
type rung struct {
	rate    float64
	queries []queryRec
	lagMs   []float64 // how late the generator sent each query
}

// hashRow hashes a response row's exact bits.
func hashRow(row []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, f := range row {
		u := math.Float32bits(f)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// serveRun is the outcome of one ladder run.
type serveRun struct {
	rungs   []*rung
	pubs    []publishTimes
	elapsed time.Duration
	heapMB  float64
	pubErr  error
	met0    metrics.ServeSnapshot
	met1    metrics.ServeSnapshot
	hists0  metrics.SetSnapshot
	hists1  metrics.SetSnapshot
}

// runLadder drives the fleet through the ladder's rates, each for its share
// of d, while the trainer publishes every publishEvery. rec, if non-nil, records one span
// per query and per publish.
func runLadder(w *srvWorld, seed int64, ladder []ladderStep, d time.Duration,
	rec *trace.Recorder) *serveRun {
	run := &serveRun{met0: w.met.Snapshot(), hists0: w.hists.Snapshot()}
	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		tick := time.NewTicker(publishEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			pt, err := w.publish(rec)
			if err != nil {
				run.pubErr = err
				return
			}
			run.pubs = append(run.pubs, pt)
		}
	}()

	rng := rand.New(rand.NewSource(seed + 505))
	runtime.GC() // drop earlier set-ups' garbage, so peak heap is this run's
	heap := startHeapSampler()
	var qWG sync.WaitGroup
	rungStart := time.Now()
	start := rungStart
	for _, step := range ladder {
		r := &rung{rate: step.rate}
		length := time.Duration(step.share * float64(d))
		n := int(step.rate * length.Seconds())
		r.queries = make([]queryRec, n)
		r.lagMs = make([]float64, n)
		interval := time.Duration(float64(time.Second) / step.rate)
		for i := 0; i < n; i++ {
			due := rungStart.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 50*time.Microsecond {
				time.Sleep(wait)
			}
			q := &r.queries[i]
			q.due, q.sent, q.qidx = due, time.Now(), rng.Intn(len(w.pool))
			r.lagMs[i] = ms(q.sent.Sub(due))
			qWG.Add(1)
			go func(q *queryRec) {
				defer qWG.Done()
				end := rec.Span("bench", "serve", "serve", "ServingFleet.Query", nil)
				res, err := w.fleet.Query(w.pool[q.qidx])
				end()
				q.done = time.Now()
				q.err = err
				if err == nil {
					q.version, q.staleness, q.hash = res.Version, res.Staleness, hashRow(res.Probs)
				}
			}(q)
		}
		run.rungs = append(run.rungs, r)
		rungStart = rungStart.Add(length)
	}
	qWG.Wait()
	run.elapsed = time.Since(start)
	close(stop)
	pubWG.Wait()
	run.heapMB = heap.finish()
	run.met1, run.hists1 = w.met.Snapshot(), w.hists.Snapshot()
	return run
}

// sentRate is the rate at which the generator actually sent the rung's
// queries (queries/s).
func (r *rung) sentRate() float64 {
	n := len(r.queries)
	if n < 2 {
		return r.rate
	}
	return float64(n-1) / r.queries[n-1].sent.Sub(r.queries[0].sent).Seconds()
}

// latencies returns a rung's query latencies (ms, from due) and how many
// of its queries failed.
func (r *rung) latencies() (lat []float64, failed int) {
	for i := range r.queries {
		q := &r.queries[i]
		if q.err != nil {
			failed++
			continue
		}
		lat = append(lat, ms(q.done.Sub(q.due)))
	}
	return lat, failed
}

// checkServe verifies every response against a local forward pass of the
// version it reports, and the one-version staleness bound.
func checkServe(rep *report, w *srvWorld, run *serveRun) error {
	if run.pubErr != nil {
		rep.check(false, "serve-publish: %v", run.pubErr)
	}
	want := map[uint64]map[int]bool{} // versions and query vectors to verify
	for _, r := range run.rungs {
		for i := range r.queries {
			q := &r.queries[i]
			if q.err != nil {
				continue
			}
			if want[q.version] == nil {
				want[q.version] = map[int]bool{}
			}
			want[q.version][q.qidx] = true
		}
	}
	ref, err := newLocalForward(w)
	if err != nil {
		return err
	}
	hashes := map[uint64][]uint64{}
	for v := range want {
		if v == 0 || v >= w.next {
			rep.check(false, "serve-publish: response reports unpublished version %d", v)
			continue
		}
		if hashes[v], err = ref.rows(v); err != nil {
			return err
		}
	}
	bad := 0
	for _, r := range run.rungs {
		for i := range r.queries {
			q := &r.queries[i]
			if q.err != nil {
				if !errors.Is(q.err, serve.ErrOverloaded) {
					rep.check(false, "serve-publish: query failed: %v", q.err)
				}
				continue
			}
			if q.staleness > 1 {
				rep.check(false, "serve-publish: response v%d is %d versions stale", q.version, q.staleness)
			}
			if h := hashes[q.version]; h != nil && h[q.qidx] != q.hash {
				bad++
			}
		}
	}
	rep.check(bad == 0, "serve-publish: %d responses differ from a local forward pass of their version", bad)
	return nil
}

// localForward evaluates the served model locally, one version at a time.
type localForward struct {
	w   *srvWorld
	vs  *exec.VarStore
	ex  *exec.Executor
	fed *tensor.Tensor
}

func newLocalForward(w *srvWorld) (*localForward, error) {
	spec := serve.MLPForward(srvBatch, srvIn, srvHidden, srvClasses)
	b := graph.NewBuilder()
	if err := spec.Build(b); err != nil {
		return nil, err
	}
	g, err := b.Finish()
	if err != nil {
		return nil, err
	}
	vs, err := newMLPVars(srvIn, srvHidden, srvClasses)
	if err != nil {
		return nil, err
	}
	ex, err := exec.New(g, exec.Config{Vars: vs, Frozen: true})
	if err != nil {
		return nil, err
	}
	return &localForward{w: w, vs: vs, ex: ex, fed: tensor.New(tensor.Float32, srvBatch, srvIn)}, nil
}

// rows returns the hash of every pool vector's output under version v.
func (l *localForward) rows(v uint64) ([]uint64, error) {
	if err := l.w.gen.fill(l.vs, v); err != nil {
		return nil, err
	}
	out := make([]uint64, 0, len(l.w.pool))
	for lo := 0; lo < len(l.w.pool); lo += srvBatch {
		xs := l.fed.Float32s()
		for i := 0; i < srvBatch; i++ {
			copy(xs[i*srvIn:(i+1)*srvIn], l.w.pool[lo+i])
		}
		res, err := l.ex.Run(0, map[string]*tensor.Tensor{"x": l.fed}, "probs")
		if err != nil {
			return nil, fmt.Errorf("local forward v%d: %w", v, err)
		}
		p := res["probs"].Float32s()
		for i := 0; i < srvBatch; i++ {
			out = append(out, hashRow(p[i*srvClasses:(i+1)*srvClasses]))
		}
	}
	return out, nil
}

// forwardOnlyMs is the compute-only baseline of serving: the median time
// of one local forward pass of a full batch, with no fleet, over d.
func forwardOnlyMs(w *srvWorld, d time.Duration) (float64, error) {
	l, err := newLocalForward(w)
	if err != nil {
		return 0, err
	}
	if err := w.gen.fill(l.vs, 1); err != nil {
		return 0, err
	}
	feeds := map[string]*tensor.Tensor{"x": l.fed}
	var times []float64
	for start := time.Now(); len(times) < 5 || time.Since(start) < d; {
		t0 := time.Now()
		if _, err := l.ex.Run(0, feeds, "probs"); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times), nil
}

// freshMs returns, per published version, the time from Publish returning
// to the first response carrying that version or a newer one.
func freshMs(run *serveRun) []float64 {
	type resp struct {
		done time.Time
		v    uint64
	}
	var rs []resp
	for _, r := range run.rungs {
		for i := range r.queries {
			if q := &r.queries[i]; q.err == nil {
				rs = append(rs, resp{q.done, q.version})
			}
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].done.Before(rs[j].done) })
	var out []float64
	for _, p := range run.pubs {
		for _, r := range rs {
			if r.v >= p.version {
				out = append(out, ms(r.done.Sub(p.returned)))
				break
			}
		}
	}
	return out
}

// runServe runs the serve-publish workload.
func runServe(p params, rep *report) error {
	var setups []float64
	var w *srvWorld
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.fleet.Close()
		}
		runtime.GC() // each set-up starts from a clean heap, as in a fresh process
		var d time.Duration
		var err error
		if w, d, err = setUpServe(p.seed); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer w.fleet.Close()
	if p.trace {
		return runServeTraced(p, rep, w)
	}
	run := runLadder(w, p.seed, rateLadder, p.duration, nil)
	if err := checkServe(rep, w, run); err != nil {
		return err
	}
	reportServeE2E(rep, run, median(setups))
	return nil
}

// reportServeE2E sets the end-to-end metrics of a ladder run. Tail
// percentiles are medians over windows of each rate's queries.
func reportServeE2E(rep *report, run *serveRun, setupS float64) {
	var served, attempted int
	best := 0.0
	for _, r := range run.rungs {
		lat, failed := r.latencies()
		attempted += len(r.queries)
		served += len(lat)
		p99 := tail(lat, 0.99)
		if failed == 0 && p99 <= srvSloMs && windowed(r.lagMs, 1, 0.5) <= srvSloMs {
			best = r.sentRate()
		}
		fmt.Printf("# rate %.0f/s: %d queries, %d failed, p50 %.3f ms, p99 %.3f ms, generator late by p99 %.3f ms, max %.3f ms\n",
			r.rate, len(r.queries), failed, median(lat), p99, quantile(r.lagMs, 0.99), quantile(r.lagMs, 1))
		if r.rate == nominalRate {
			rep.set("query_ms_p50", "ms", median(lat))
			rep.set("query_ms_p99", "ms", p99)
		}
	}
	var cycle, publish []float64
	for _, pt := range run.pubs {
		cycle = append(cycle, ms(pt.cycle))
		publish = append(publish, ms(pt.publish))
	}
	rep.attempted, rep.failed = int64(attempted), int64(attempted-served)
	rep.set("samples_per_s", "1/s", float64(served)/run.elapsed.Seconds())
	rep.set("step_ms_p50", "ms", median(cycle))
	rep.set("step_ms_p90", "ms", tail(cycle, 0.90))
	rep.set("max_qps_at_slo", "1/s", best)
	rep.set("publish_ms_p50", "ms", median(publish))
	rep.set("fresh_ms_p50", "ms", median(freshMs(run)))
	rep.set("setup_s", "s", setupS)
	rep.set("peak_heap_mb", "MiB", run.heapMB)
	rep.set("success_ratio", "ratio", float64(served)/float64(attempted))
}
