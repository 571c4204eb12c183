package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/internal/rdma"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The layer ladder: each row times one call into one layer's public API,
// from outside, at the workload's own tensor sizes. Row L(n) includes
// everything row L(n-1) does, so a row's self time is it minus the row
// below it:
//
//	L0 rdma.memcpy         Channel.MemcpySync of the largest tensor
//	L1 rdma.static_send    StaticSender.Send + receiver Poll, one lane
//	L2 rdma.send_retry     SendRetry + Wait with default TransferOpts
//	L3 rdma.striped_send   the same at the workload's lane count
//	L4 exec.edge_step      Cluster.Step of a one-edge graph: an op-produced
//	                       source, one cut edge, a no-op consumer
//	L5                     Cluster.Step of the workload (step_ms)
//	L6 serve.frontend_query Query on an idle fleet, no publication
//
// Beside the ladder: rdma.coalesce_flush (Stage×n + FlushRetry at the
// small-tensor sizes), rdma.dyn_fetch (the Dyn protocol's send, metadata
// wait and fetch) and tensor.matmul (the workload's layer shape).

// ladderSizes describes a workload's tensors.
type ladderSizes struct {
	edgeBytes int    // largest tensor crossing an edge
	lanes     int    // stripe lanes per transfer
	dyn       bool   // the workload's edges use the Dyn protocol
	coalesce  []int  // small tensors coalesced into one flush
	matmul    [3]int // m, k, n of the workload's main layer
	model     [3]int // in, hidden, classes of the L6 forward model
}

const rowBudget = 300 * time.Millisecond // timed per ladder row

// row is one ladder row's per-operation samples.
type row struct {
	name          string
	us            []float64
	bytes, allocs float64
}

// measureRow times op repeatedly for rowBudget (at least 5 calls) after
// two warm-up calls. One span covers the row's timed calls.
func measureRow(name string, rec *trace.Recorder, op func() error) (row, error) {
	r := row{name: name}
	for i := 0; i < 2; i++ {
		if err := op(); err != nil {
			return r, fmt.Errorf("%s: %w", name, err)
		}
	}
	layer, _, _ := strings.Cut(name, ".")
	calls := map[string]any{}
	end := rec.Span("bench", "ladder", layer, name, calls)
	defer end()
	allocs := startAllocs()
	start := time.Now()
	for len(r.us) < 5 || time.Since(start) < rowBudget {
		t0 := time.Now()
		err := op()
		d := time.Since(t0)
		if err != nil {
			return r, fmt.Errorf("%s: %w", name, err)
		}
		r.us = append(r.us, us(d))
	}
	r.bytes, r.allocs = allocs.perOp(len(r.us))
	calls["calls"] = len(r.us)
	return r, nil
}

// devPair is two devices on a fresh, unthrottled fabric.
type devPair struct{ a, b *rdma.Device }

func newDevPair(lanes int) (*devPair, error) {
	f := rdma.NewFabric()
	qps := lanes
	if qps < 1 {
		qps = 1
	}
	a, err := rdma.CreateDevice(f, rdma.Config{Endpoint: "ladder-a", QPsPerPeer: qps})
	if err != nil {
		return nil, err
	}
	b, err := rdma.CreateDevice(f, rdma.Config{Endpoint: "ladder-b", QPsPerPeer: qps})
	if err != nil {
		a.Close()
		return nil, err
	}
	return &devPair{a, b}, nil
}

func (p *devPair) close() { p.a.Close(); p.b.Close() }

// staticPair is a static-placement sender on a and receiver on b with
// the given number of lanes.
func (p *devPair) staticPair(size, lanes int) (*rdma.StaticSender, *rdma.StaticReceiver, error) {
	rmr, err := p.b.AllocateMemRegion(rdma.StaticSlotSize(size))
	if err != nil {
		return nil, nil, err
	}
	recv, err := rdma.NewStaticReceiver(rmr, 0, size)
	if err != nil {
		return nil, nil, err
	}
	smr, err := p.a.AllocateMemRegion(rdma.StaticSlotSize(size))
	if err != nil {
		return nil, nil, err
	}
	ch, err := p.a.GetChannel("ladder-b", 0)
	if err != nil {
		return nil, nil, err
	}
	send, err := rdma.NewStaticSender(ch, smr, 0, recv.Desc())
	if err != nil {
		return nil, nil, err
	}
	for i := 1; i < lanes; i++ {
		lane, err := p.a.GetChannel("ladder-b", i)
		if err != nil {
			return nil, nil, err
		}
		if err := send.AddLane(lane); err != nil {
			return nil, nil, err
		}
	}
	fill(send.Buffer())
	return send, recv, nil
}

// fill writes a fixed pattern, so transfers move real bytes.
func fill(b []byte) {
	for i := range b {
		b[i] = byte(i * 7)
	}
}

// rdmaRows measures L0–L3 and the coalesce and Dyn rows.
func rdmaRows(s ladderSizes, rec *trace.Recorder) ([]row, error) {
	p, err := newDevPair(s.lanes)
	if err != nil {
		return nil, err
	}
	defer p.close()
	size := s.edgeBytes
	var rows []row
	add := func(name string, op func() error) error {
		r, err := measureRow(name, rec, op)
		if err == nil {
			rows = append(rows, r)
		}
		return err
	}

	src, err := p.a.AllocateMemRegion(size)
	if err != nil {
		return nil, err
	}
	dst, err := p.b.AllocateMemRegion(size)
	if err != nil {
		return nil, err
	}
	fill(src.Bytes())
	ch, err := p.a.GetChannel("ladder-b", 0)
	if err != nil {
		return nil, err
	}
	if err := add("rdma.memcpy", func() error {
		return ch.MemcpySync(0, src, 0, dst.Descriptor(), size, rdma.OpWrite)
	}); err != nil {
		return nil, err
	}

	send, recv, err := p.staticPair(size, 1)
	if err != nil {
		return nil, err
	}
	if err := add("rdma.static_send", func() error {
		done := make(chan error, 1)
		if err := send.Send(func(err error) { done <- err }); err != nil {
			return err
		}
		if err := <-done; err != nil {
			return err
		}
		for !recv.Poll() {
		}
		recv.Consume()
		return nil
	}); err != nil {
		return nil, err
	}
	if err := add("rdma.send_retry", func() error {
		if err := send.SendRetry(rdma.TransferOpts{}); err != nil {
			return err
		}
		if err := recv.Wait(rdma.TransferOpts{}); err != nil {
			return err
		}
		recv.Consume()
		return nil
	}); err != nil {
		return nil, err
	}

	striped, srecv, err := p.staticPair(size, s.lanes)
	if err != nil {
		return nil, err
	}
	sopts := rdma.TransferOpts{Stripes: s.lanes}
	if err := add("rdma.striped_send", func() error {
		if err := striped.SendRetry(sopts); err != nil {
			return err
		}
		if err := srecv.Wait(sopts); err != nil {
			return err
		}
		srecv.Consume()
		return nil
	}); err != nil {
		return nil, err
	}

	if err := coalesceRow(p, s.coalesce, add); err != nil {
		return nil, err
	}
	if err := dynRow(p, size, s.lanes, add); err != nil {
		return nil, err
	}
	return rows, nil
}

// coalesceRow measures one coalesced batch of the given message sizes:
// Stage each, FlushRetry, receiver decode and ack, sender reuse.
func coalesceRow(p *devPair, sizes []int, add func(string, func() error) error) error {
	capacity := wire.BatchHeaderSize
	for _, n := range sizes {
		capacity += wire.SubMsgSize(n)
	}
	rmr, err := p.b.AllocateMemRegion(rdma.StaticSlotSize(capacity))
	if err != nil {
		return err
	}
	back, err := p.b.GetChannel("ladder-a", 0)
	if err != nil {
		return err
	}
	recv, err := rdma.NewCoalescedReceiver(back, rmr, 0, capacity)
	if err != nil {
		return err
	}
	smr, err := p.a.AllocateMemRegion(rdma.StaticSlotSize(capacity) + rdma.FlagWordSize)
	if err != nil {
		return err
	}
	ch, err := p.a.GetChannel("ladder-b", 0)
	if err != nil {
		return err
	}
	send, err := rdma.NewCoalescedSender(ch, smr, 0, recv.Desc())
	if err != nil {
		return err
	}
	payloads := make([][]byte, len(sizes))
	for i, n := range sizes {
		payloads[i] = make([]byte, n)
		fill(payloads[i])
	}
	return add("rdma.coalesce_flush", func() error {
		for !send.PollReusable() {
		}
		send.Reset()
		for i, pl := range payloads {
			if err := send.Stage(uint32(i), pl); err != nil {
				return err
			}
		}
		if err := send.FlushRetry(rdma.TransferOpts{}); err != nil {
			return err
		}
		for !recv.Poll() {
		}
		msgs, err := recv.Messages()
		if err != nil {
			return err
		}
		if len(msgs) != len(sizes) {
			return fmt.Errorf("coalesced batch carried %d messages, staged %d", len(msgs), len(sizes))
		}
		recv.Consume()
		return recv.AckRetry(send.AckDesc(), rdma.TransferOpts{})
	})
}

// dynRow measures one Dyn-protocol transfer: metadata write, the
// receiver's metadata wait, the one-sided read and its ack.
func dynRow(p *devPair, size, lanes int, add func(string, func() error) error) error {
	meta, err := p.b.AllocateMemRegion(rdma.DynMetaSize)
	if err != nil {
		return err
	}
	back, err := p.b.GetChannel("ladder-a", 0)
	if err != nil {
		return err
	}
	recv, err := rdma.NewDynReceiver(back, meta, 0)
	if err != nil {
		return err
	}
	defer recv.Close()
	for i := 1; i < lanes; i++ {
		lane, err := p.b.GetChannel("ladder-a", i)
		if err != nil {
			return err
		}
		if err := recv.AddLane(lane); err != nil {
			return err
		}
	}
	scratch, err := p.a.AllocateMemRegion(rdma.DynMetaSize)
	if err != nil {
		return err
	}
	payload, err := p.a.AllocateMemRegion(size)
	if err != nil {
		return err
	}
	fill(payload.Bytes())
	dst, err := p.b.AllocateMemRegion(size)
	if err != nil {
		return err
	}
	ch, err := p.a.GetChannel("ladder-b", 0)
	if err != nil {
		return err
	}
	send, err := rdma.NewDynSender(ch, scratch, 0, recv.Desc())
	if err != nil {
		return err
	}
	opts := rdma.TransferOpts{Stripes: lanes}
	dims := []uint64{uint64(size / 4)}
	return add("rdma.dyn_fetch", func() error {
		if err := send.SendRetry(payload, 0, size, uint32(tensor.Float32), dims, opts); err != nil {
			return err
		}
		m, err := recv.WaitMeta(opts)
		if err != nil {
			return err
		}
		return recv.FetchRetry(m, send.ScratchDesc(), dst, 0, opts)
	})
}

// edgeStepRow is L4: Cluster.Step on a graph with one cut edge of the
// workload's size and protocol. The source is produced by an op (Scale),
// so the zero-copy path applies; the consumer is an Identity.
func edgeStepRow(s ladderSizes, transfer rdma.TransferOpts, rec *trace.Recorder) (row, error) {
	n := s.edgeBytes / 4
	b := graph.NewBuilder()
	b.OnTask("src")
	var feeds map[string]map[string]*tensor.Tensor
	var in *graph.Node
	if s.dyn {
		in = b.Placeholder("x", graph.Dyn(tensor.Float32, -1, n))
		x := tensor.New(tensor.Float32, 1, n)
		tensor.RandomUniform(x, rand.New(rand.NewSource(1)), 1)
		feeds = map[string]map[string]*tensor.Tensor{"src": {"x": x}}
	} else {
		in = b.Variable("v", graph.Static(tensor.Float32, n))
	}
	out := b.Scale("produce", in, 1)
	b.OnTask("dst")
	b.Identity("consume", out)
	if err := b.Err(); err != nil {
		return row{}, err
	}
	cl, err := distributed.Launch(b, distributed.Config{Kind: distributed.RDMA,
		ArenaBytes: 4*s.edgeBytes + (1 << 20), Transfer: transfer})
	if err != nil {
		return row{}, fmt.Errorf("edge step launch: %w", err)
	}
	defer cl.Close()
	if !s.dyn {
		if err := cl.InitVariable("v", func(t *tensor.Tensor) { fill(t.Bytes()) }); err != nil {
			return row{}, err
		}
	}
	iter := 0
	return measureRow("exec.edge_step", rec, func() error {
		_, err := cl.Step(iter, feeds, nil)
		iter++
		return err
	})
}

// frontendRow is L6: sequential queries on an idle fleet serving the
// workload's model shape, one version published, no publication running.
func frontendRow(s ladderSizes, seed int64, rec *trace.Recorder) (row, error) {
	in, hidden, classes := s.model[0], s.model[1], s.model[2]
	spec := serve.MLPForward(srvBatch, in, hidden, classes)
	vs, err := newMLPVars(in, hidden, classes)
	if err != nil {
		return row{}, err
	}
	gen, err := newWeightGen(seed, vs, srvVarNames)
	if err != nil {
		return row{}, err
	}
	if err := gen.fill(vs, 1); err != nil {
		return row{}, err
	}
	fleet, err := distributed.NewServingFleet(distributed.ServingConfig{
		Replicas: srvReplicas, Spec: spec, Vars: vs,
		Heartbeat: distributed.HeartbeatConfig{Timeout: time.Second},
	})
	if err != nil {
		return row{}, err
	}
	defer fleet.Close()
	if _, err := fleet.Publish(); err != nil {
		return row{}, err
	}
	xt := tensor.New(tensor.Float32, in)
	tensor.RandomUniform(xt, rand.New(rand.NewSource(seed+606)), 1)
	x := xt.Float32s()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if res, err := fleet.Query(x); err == nil && res.Version == 1 {
			break
		}
		if time.Now().After(deadline) {
			return row{}, fmt.Errorf("idle fleet never served version 1")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return measureRow("serve.frontend_query", rec, func() error {
		_, err := fleet.Query(x)
		return err
	})
}

// matmulRow times the tensor kernel at the workload's layer shape.
func matmulRow(s ladderSizes, rec *trace.Recorder) (row, error) {
	m, k, n := s.matmul[0], s.matmul[1], s.matmul[2]
	a, b, c := tensor.New(tensor.Float32, m, k), tensor.New(tensor.Float32, k, n), tensor.New(tensor.Float32, m, n)
	rng := rand.New(rand.NewSource(1))
	tensor.RandomUniform(a, rng, 1)
	tensor.RandomUniform(b, rng, 1)
	return measureRow("tensor.matmul", rec, func() error { return tensor.MatMul(c, a, b) })
}

// reportLadder measures every row and reports each as median, spread, bytes
// and allocations per operation, plus the self time of L1–L4.
func reportLadder(rep *report, s ladderSizes, transfer rdma.TransferOpts, seed int64,
	rec *trace.Recorder) error {
	rows, err := rdmaRows(s, rec)
	if err != nil {
		return err
	}
	for _, f := range []func() (row, error){
		func() (row, error) { return edgeStepRow(s, transfer, rec) },
		func() (row, error) { return frontendRow(s, seed, rec) },
		func() (row, error) { return matmulRow(s, rec) },
	} {
		r, err := f()
		if err != nil {
			return err
		}
		rows = append(rows, r)
	}
	med := map[string]float64{}
	for _, r := range rows {
		med[r.name] = median(r.us)
		rep.set(r.name+"_us", "us", med[r.name])
		rep.set(r.name+"_iqr_us", "us", iqr(r.us))
		rep.set(r.name+"_b_per_op", "B", r.bytes)
		rep.set(r.name+"_allocs_per_op", "count", r.allocs)
	}
	below := "rdma.striped_send"
	if s.dyn {
		below = "rdma.dyn_fetch"
	}
	rep.set("ladder.l1_self_us", "us", med["rdma.static_send"]-med["rdma.memcpy"])
	rep.set("ladder.l2_self_us", "us", med["rdma.send_retry"]-med["rdma.static_send"])
	rep.set("ladder.l3_self_us", "us", med["rdma.striped_send"]-med["rdma.send_retry"])
	rep.set("ladder.l4_self_us", "us", med["exec.edge_step"]-med[below])
	return nil
}
