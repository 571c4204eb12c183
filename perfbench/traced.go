package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/distributed"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The traced run: the layer ladder, then the workload twice, first
// untraced (program counters and histograms, and the baseline for the
// tracing overhead) and then with spans. The benchmark's own spans wrap
// each call into a layer's public API; for training the cluster's
// Config.Trace recorder adds one span per operator into the same
// recorder. Spans stay in memory and are written out at the end.

// Shares of --seconds given to the traced run's phases (the ladder's rows
// are fixed-length; see rowBudget).
const (
	untracedShare    = 0.3
	tracedShare      = 0.3
	computeOnlyShare = 0.1
)

// perLayerUnits lists every per-layer metric with its unit. A metric a
// workload does not exercise reads 0.
var perLayerUnits = map[string]string{
	"rdma.bytes_per_step": "B", "rdma.copied_bytes_per_step": "B",
	"rdma.zerocopy_ops_per_step": "count", "rdma.messages_per_step": "count",
	"rdma.dyn_transfers_per_step": "count", "rdma.doorbells_per_step": "count",
	"rdma.chunks_per_doorbell": "count", "rdma.coalesced_msgs_per_flush": "count",
	"rdma.retry_ratio": "ratio", "rdma.edge_xfer_us_p50": "us",
	"exec.compute_only_ms": "ms", "exec.overhead_frac": "ratio",
	"exec.compute_frac": "ratio", "exec.comm_frac": "ratio",
	"exec.pollwait_frac": "ratio", "exec.idle_frac": "ratio",
	"exec.ops_per_step": "count", "exec.op_us_p50": "us",
	"exec.allocs_per_step": "count", "exec.alloc_kb_per_step": "KiB",
	"distributed.step_skew_ms": "ms", "distributed.launch_ms": "ms",
	"distributed.init_ms": "ms", "distributed.first_step_ms": "ms",
	"serve.publish_gbps": "GB/s", "serve.bank_swaps": "count",
	"serve.queue_wait_us_p50": "us", "serve.batch_us_p50": "us",
	"serve.batch_fill": "ratio", "serve.shed_ratio": "ratio",
	"serve.routing_rejects": "count", "serve.gen_lag_ms_p99": "ms",
	"trace.overhead_frac": "ratio", "trace.self_distributed_ms": "ms",
	"trace.self_exec_ms": "ms", "trace.self_rdma_ms": "ms",
	"trace.self_tensor_ms": "ms", "trace.self_serve_ms": "ms",
	"ladder.l1_self_us": "us", "ladder.l2_self_us": "us",
	"ladder.l3_self_us": "us", "ladder.l4_self_us": "us",
}

// ladderRows are the ladder's row names; each reports four metrics.
var ladderRows = []string{"rdma.memcpy", "rdma.static_send", "rdma.send_retry",
	"rdma.striped_send", "rdma.coalesce_flush", "rdma.dyn_fetch",
	"exec.edge_step", "serve.frontend_query", "tensor.matmul"}

func init() {
	for _, r := range ladderRows {
		perLayerUnits[r+"_us"] = "us"
		perLayerUnits[r+"_iqr_us"] = "us"
		perLayerUnits[r+"_b_per_op"] = "B"
		perLayerUnits[r+"_allocs_per_op"] = "count"
	}
}

// completePerLayer sets every per-layer metric the run did not measure
// to 0, so each traced run reports the same names.
func completePerLayer(rep *report) {
	for name, unit := range perLayerUnits {
		if _, ok := rep.metrics[name]; !ok {
			rep.set(name, unit, 0)
		}
	}
}

// writeSpans writes the recorder's spans to path.
func writeSpans(rec *trace.Recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("# spans %s (%d events, %d dropped)\n", path, rec.Len(), rec.Dropped())
	return nil
}

func share(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// runTrainTraced is the traced variant of a training workload; cl is the
// untraced cluster set-up left ready for step 1.
func runTrainTraced(w trainWorkload, p params, rep *report, m *trainModel,
	cl *distributed.Cluster, setups []setupTimes, step01 [][]uint32) error {
	var launch, init, first []float64
	for _, st := range setups {
		launch, init, first = append(launch, ms(st.launch)), append(init, ms(st.init)), append(first, ms(st.first))
	}
	rep.set("distributed.launch_ms", "ms", median(launch))
	rep.set("distributed.init_ms", "ms", median(init))
	rep.set("distributed.first_step_ms", "ms", median(first))

	rec := trace.NewRecorder(0)
	if err := reportLadder(rep, m.ladder, m.cfg.Transfer, p.seed, rec); err != nil {
		cl.Close()
		return err
	}

	segA := runSegment(cl, m, 2, share(p.duration, untracedShare), nil)
	checkCounters(rep, w, cl, segA)
	cl.Close()
	reportTrainLayers(rep, segA)

	compute, err := computeOnly(w, p.seed, share(p.duration, computeOnlyShare))
	if err != nil {
		return err
	}
	rep.set("exec.compute_only_ms", "ms", compute)
	rep.set("exec.overhead_frac", "ratio", 1-compute/median(segA.stepMs))

	mB, clB, _, b0, err := setUp(w, p.seed, distributed.RDMA, rec)
	if err != nil {
		return err
	}
	out, err := clB.Step(1, mB.feedsFor(1), mB.fetches)
	if err != nil {
		clB.Close()
		return fmt.Errorf("traced step 1: %w", err)
	}
	b1 := lossBits(mB, out)
	segB := runSegment(clB, mB, 2, share(p.duration, tracedShare), rec)
	checkCounters(rep, w, clB, segB)
	clB.Close()
	rep.set("trace.overhead_frac", "ratio", median(segB.stepMs)/median(segA.stepMs)-1)
	stepSelfTimes(rep, rec, 2+warmupSteps)

	for _, seg := range []*segment{segA, segB} {
		if seg.err != nil {
			rep.check(false, "%s: %v", w.name, seg.err)
		}
		rep.attempted += int64(seg.steps) + seg.failed
		rep.failed += seg.failed
	}
	runA := append(append([][]uint32(nil), step01...), segA.losses...)
	runB := append([][]uint32{b0, b1}, segB.losses...)
	ref, err := reference(w, p.seed, max(len(runA), len(runB)))
	if err != nil {
		return err
	}
	checkLosses(rep, w.name+" (untraced)", runA, ref)
	checkLosses(rep, w.name+" (traced)", runB, ref)
	completePerLayer(rep)
	return writeSpans(rec, spanFile(p, w.name))
}

// reportTrainLayers sets the per-layer metrics read from the program's
// own counters, histograms and step profiles over an untraced segment.
func reportTrainLayers(rep *report, seg *segment) {
	steps := float64(seg.steps)
	per := func(f func(metrics.CommSnapshot) int64) float64 {
		return commTotal(seg.comm0, seg.comm1, f) / steps
	}
	rep.set("rdma.bytes_per_step", "B", per(func(s metrics.CommSnapshot) int64 { return s.BytesSent }))
	rep.set("rdma.copied_bytes_per_step", "B", per(func(s metrics.CommSnapshot) int64 { return s.CopiedBytes }))
	rep.set("rdma.zerocopy_ops_per_step", "count", per(func(s metrics.CommSnapshot) int64 { return s.ZeroCopyOps }))
	rep.set("rdma.messages_per_step", "count", per(func(s metrics.CommSnapshot) int64 { return s.Messages }))
	rep.set("rdma.dyn_transfers_per_step", "count", per(func(s metrics.CommSnapshot) int64 { return s.DynTransfers }))
	doorbells := per(func(s metrics.CommSnapshot) int64 { return s.DoorbellFlushes })
	rep.set("rdma.doorbells_per_step", "count", doorbells)
	rep.set("rdma.chunks_per_doorbell", "count",
		ratio(per(func(s metrics.CommSnapshot) int64 { return s.StripeSegments }), doorbells))
	rep.set("rdma.coalesced_msgs_per_flush", "count", ratio(
		per(func(s metrics.CommSnapshot) int64 { return s.CoalescedMessages }),
		per(func(s metrics.CommSnapshot) int64 { return s.CoalesceFlushes })))
	rep.set("rdma.retry_ratio", "ratio", ratio(
		per(func(s metrics.CommSnapshot) int64 { return s.Retries }),
		per(func(s metrics.CommSnapshot) int64 { return s.Messages + s.DynTransfers })))

	family := func(name string) metrics.HistogramSnapshot {
		var d metrics.HistogramSnapshot
		for task, after := range seg.hist1 {
			d = d.Merge(histDelta(metrics.FamilyTotal(seg.hist0[task].Families[name]),
				metrics.FamilyTotal(after.Families[name])))
		}
		return d
	}
	rep.set("rdma.edge_xfer_us_p50", "us", float64(family(metrics.HistEdgeXferNs).Quantile(0.5))/1e3)
	opNs := family(metrics.HistExecOpNs)
	rep.set("exec.op_us_p50", "us", float64(opNs.Quantile(0.5))/1e3)

	var tot metrics.StepBreakdown
	var ops int64
	for task, after := range seg.sum1 {
		before := seg.sum0[task].Totals
		a := after.Totals
		tot.Compute += a.Compute - before.Compute
		tot.Comm += a.Comm - before.Comm
		tot.PollWait += a.PollWait - before.PollWait
		tot.Idle += a.Idle - before.Idle
		ops += a.Ops - before.Ops
	}
	acc := float64(tot.Accounted())
	rep.set("exec.compute_frac", "ratio", ratio(float64(tot.Compute), acc))
	rep.set("exec.comm_frac", "ratio", ratio(float64(tot.Comm), acc))
	rep.set("exec.pollwait_frac", "ratio", ratio(float64(tot.PollWait), acc))
	rep.set("exec.idle_frac", "ratio", ratio(float64(tot.Idle), acc))
	rep.set("exec.ops_per_step", "count", float64(ops)/steps)
	rep.set("exec.allocs_per_step", "count", seg.allocs)
	rep.set("exec.alloc_kb_per_step", "KiB", seg.allocB/1024)

	skew := make([]float64, len(seg.fastMs))
	for i := range skew {
		skew[i] = seg.slowMs[i] - seg.fastMs[i]
	}
	rep.set("distributed.step_skew_ms", "ms", median(skew))
}

// interval is a span's [start, end) in microseconds.
type interval struct{ lo, hi float64 }

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs []interval, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, cur := 0.0, lo
	for _, iv := range ivs {
		a, b := max(iv.lo, cur), min(iv.hi, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// stepSelfTimes derives per-layer self time per step from the traced
// segment's spans: distributed is each Cluster.Step span minus the part
// its tasks' executors were active; exec is each task's active extent
// minus the part its operator spans cover; rdma and tensor are the busy
// time of edge and compute operator spans. Steps before firstStep (set-up
// and warm-up) are skipped.
func stepSelfTimes(rep *report, rec *trace.Recorder, firstStep int) {
	type stepSpans struct {
		step  interval
		tasks map[string][]interval
	}
	steps := map[int]*stepSpans{}
	get := func(i int) *stepSpans {
		if steps[i] == nil {
			steps[i] = &stepSpans{tasks: map[string][]interval{}}
		}
		return steps[i]
	}
	var rdmaUs, tensorUs float64
	for _, ev := range rec.Events() {
		args, _ := ev.Args.(map[string]any)
		iv := interval{ev.TS, ev.TS + ev.Dur}
		switch {
		case ev.PID == "bench" && ev.Name == "Cluster.Step":
			if i, ok := args["step"].(int); ok && i >= firstStep {
				get(i).step = iv
			}
		case ev.TID == "exec":
			i, ok := args["iter"].(int)
			if !ok || i < firstStep {
				continue
			}
			get(i).tasks[ev.PID] = append(get(i).tasks[ev.PID], iv)
			if isEdgeOp(ev.Category) {
				rdmaUs += ev.Dur
			} else {
				tensorUs += ev.Dur
			}
		}
	}
	var distUs, execUs float64
	n := 0
	for _, s := range steps {
		if s.step.hi == 0 {
			continue
		}
		n++
		var extents []interval
		for _, ivs := range s.tasks {
			ext := interval{ivs[0].lo, ivs[0].hi}
			for _, iv := range ivs {
				ext.lo, ext.hi = min(ext.lo, iv.lo), max(ext.hi, iv.hi)
			}
			extents = append(extents, ext)
			execUs += (ext.hi - ext.lo) - covered(ivs, ext.lo, ext.hi)
		}
		distUs += (s.step.hi - s.step.lo) - covered(extents, s.step.lo, s.step.hi)
	}
	if n == 0 {
		return
	}
	rep.set("trace.self_distributed_ms", "ms", distUs/float64(n)/1e3)
	rep.set("trace.self_exec_ms", "ms", execUs/float64(n)/1e3)
	rep.set("trace.self_rdma_ms", "ms", rdmaUs/float64(n)/1e3)
	rep.set("trace.self_tensor_ms", "ms", tensorUs/float64(n)/1e3)
}

// isEdgeOp reports whether an operator moves tensors between tasks.
func isEdgeOp(op string) bool {
	return strings.HasPrefix(op, "Rdma") || strings.HasPrefix(op, "Coalesced") ||
		strings.HasPrefix(op, "RPC")
}

// runServeTraced is the traced variant of serve-publish on the fleet w.
func runServeTraced(p params, rep *report, w *srvWorld) error {
	rec := trace.NewRecorder(0)
	bank, err := serve.LayoutFor(w.vars, nil)
	if err != nil {
		return err
	}
	sizes := ladderSizes{edgeBytes: bank.Payload, lanes: 2,
		coalesce: []int{srvHidden * 4, srvClasses * 4}, matmul: [3]int{srvBatch, srvIn, srvHidden},
		model: [3]int{srvIn, srvHidden, srvClasses}}
	if err := reportLadder(rep, sizes, rdma.TransferOpts{Stripes: sizes.lanes}, p.seed, rec); err != nil {
		return err
	}
	nominal := []ladderStep{{nominalRate, 1}}
	runA := runLadder(w, p.seed, nominal, share(p.duration, untracedShare), nil)
	runB := runLadder(w, p.seed, nominal, share(p.duration, tracedShare), rec)
	for _, run := range []*serveRun{runA, runB} {
		if err := checkServe(rep, w, run); err != nil {
			return err
		}
		for _, r := range run.rungs {
			_, failed := r.latencies()
			rep.attempted += int64(len(r.queries))
			rep.failed += int64(failed)
		}
	}
	latA, _ := runA.rungs[0].latencies()
	latB, _ := runB.rungs[0].latencies()
	rep.set("trace.overhead_frac", "ratio", median(latB)/median(latA)-1)
	rep.set("serve.gen_lag_ms_p99", "ms", quantile(runA.rungs[0].lagMs, 0.99))

	m0, m1 := runA.met0, runA.met1
	hist := func(name string) metrics.HistogramSnapshot {
		return histDelta(runA.hists0.Hists[name], runA.hists1.Hists[name])
	}
	pubNs := hist(metrics.HistServePublishNs)
	rep.set("serve.publish_gbps", "GB/s", ratio(float64(m1.PublishedBytes-m0.PublishedBytes), float64(pubNs.Sum)))
	rep.set("serve.bank_swaps", "count", float64(m1.BankSwaps-m0.BankSwaps))
	rep.set("serve.queue_wait_us_p50", "us", float64(hist(metrics.HistServeQueueNs).Quantile(0.5))/1e3)
	rep.set("serve.batch_us_p50", "us", float64(hist(metrics.HistServeBatchNs).Quantile(0.5))/1e3)
	rep.set("serve.batch_fill", "ratio", hist(metrics.HistServeBatchSize).Mean()/srvBatch)
	served, shed := m1.QueriesServed-m0.QueriesServed, m1.QueriesShed-m0.QueriesShed
	rep.set("serve.shed_ratio", "ratio", ratio(float64(shed), float64(served+shed)))
	rep.set("serve.routing_rejects", "count", float64(m1.RoutingRejects-m0.RoutingRejects))

	compute, err := forwardOnlyMs(w, share(p.duration, computeOnlyShare))
	if err != nil {
		return err
	}
	rep.set("exec.compute_only_ms", "ms", compute)
	rep.set("exec.overhead_frac", "ratio", 1-compute/median(latA))

	var queryUs []float64
	for _, ev := range rec.Events() {
		if ev.Name == "ServingFleet.Query" {
			queryUs = append(queryUs, ev.Dur)
		}
	}
	rep.set("trace.self_serve_ms", "ms", median(queryUs)/1e3)
	completePerLayer(rep)
	return writeSpans(rec, spanFile(p, "serve-publish"))
}
