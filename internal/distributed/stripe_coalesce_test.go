package distributed

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/tensor"
)

// runTransferTraining is runPSChaosTraining with a configurable PS count:
// psCount=1 places both variables on ps0, so the per-pair coalesce groups
// carry multiple sub-messages per batch. Seeds match the other helpers, so
// runs with equal psCount are bit-comparable across transfer configs.
func runTransferTraining(t *testing.T, cfg Config, psCount, iters int,
	afterLaunch func(*Cluster)) ([]float32, []float32, []float32, map[string]metrics.CommSnapshot, error) {
	t.Helper()
	const workers, batch, in, classes = 2, 8, 12, 4
	b, workerTasks := buildPSTraining(t, workers, psCount, batch, in, classes, 0.2)
	cl, err := Launch(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(99))
	if err := cl.InitVariable("w", func(tt *tensor.Tensor) { tensor.GlorotInit(tt, rng) }); err != nil {
		t.Fatal(err)
	}
	if err := cl.InitVariable("bias", nil); err != nil {
		t.Fatal(err)
	}
	feeds := make(map[string]map[string]*tensor.Tensor)
	fetches := make(map[string][]string)
	dataRng := rand.New(rand.NewSource(7))
	for k, task := range workerTasks {
		x := tensor.New(tensor.Float32, batch, in)
		labels := tensor.New(tensor.Int32, batch)
		tensor.RandomUniform(x, dataRng, 1)
		tensor.RandomLabels(labels, dataRng, classes)
		feeds[task] = map[string]*tensor.Tensor{
			fmt.Sprintf("x%d", k):      x,
			fmt.Sprintf("labels%d", k): labels,
		}
		fetches[task] = []string{fmt.Sprintf("loss%d", k)}
	}
	if afterLaunch != nil {
		afterLaunch(cl)
	}
	var losses []float32
	for iter := 0; iter < iters; iter++ {
		out, err := cl.Step(iter, feeds, fetches)
		if err != nil {
			return losses, nil, nil, cl.MetricsSnapshot(), err
		}
		var sum float32
		for k, task := range workerTasks {
			sum += out[task][fmt.Sprintf("loss%d", k)].Float32s()[0]
		}
		losses = append(losses, sum/float32(workers))
	}
	wT, err := cl.VarTensor("w")
	if err != nil {
		t.Fatal(err)
	}
	biasT, err := cl.VarTensor("bias")
	if err != nil {
		t.Fatal(err)
	}
	w := append([]float32(nil), wT.Float32s()...)
	bias := append([]float32(nil), biasT.Float32s()...)
	return losses, w, bias, cl.MetricsSnapshot(), nil
}

// TestStripedCoalescedTrainingParity: striping, coalescing, and both
// combined must train bit-identically to the plain RDMA mechanism — same
// losses, same final variables — while the metrics prove the new paths
// actually ran (multiple lanes used; batches flushed).
func TestStripedCoalescedTrainingParity(t *testing.T) {
	base := Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 30 * time.Second,
		Transfer:    rdma.TransferOpts{Deadline: 8 * time.Second},
	}
	const psCount, steps = 1, 12
	refLosses, refW, refBias, _, err := runTransferTraining(t, base, psCount, steps, nil)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	// In the combined variant the threshold sits between the two payload
	// sizes (bias 16B, w 192B) so the same run exercises both mechanisms:
	// bias edges coalesce, w edges stripe. At 256 everything would coalesce
	// and striping would (correctly) never engage.
	variants := []struct {
		name              string
		stripes, coalesce int
	}{
		{"striped", 4, 0},
		{"coalesced", 0, 256},
		{"striped+coalesced", 4, 100},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			cfg.Transfer.Stripes = v.stripes
			cfg.Transfer.CoalesceThreshold = v.coalesce
			losses, w, bias, ms, err := runTransferTraining(t, cfg, psCount, steps, nil)
			if err != nil {
				t.Fatalf("%s run: %v", v.name, err)
			}
			for i := range refLosses {
				if losses[i] != refLosses[i] {
					t.Fatalf("loss[%d] = %v, baseline %v: transfer path changed the numbers", i, losses[i], refLosses[i])
				}
			}
			for i := range refW {
				if w[i] != refW[i] {
					t.Fatalf("w[%d] = %v, baseline %v", i, w[i], refW[i])
				}
			}
			for i := range refBias {
				if bias[i] != refBias[i] {
					t.Fatalf("bias[%d] = %v, baseline %v", i, bias[i], refBias[i])
				}
			}
			var striped, flushes, msgs int64
			maxLanes := 0
			for _, s := range ms {
				striped += s.StripedTransfers
				flushes += s.CoalesceFlushes
				msgs += s.CoalescedMessages
				if l := s.ActiveLanes(); l > maxLanes {
					maxLanes = l
				}
			}
			if v.stripes > 1 {
				if striped == 0 {
					t.Error("striping enabled but no striped transfers counted")
				}
				if maxLanes < 2 {
					t.Errorf("striping enabled but at most %d lane active", maxLanes)
				}
			}
			if v.coalesce > 0 {
				if flushes == 0 {
					t.Error("coalescing enabled but no batches flushed")
				}
				if msgs < flushes {
					t.Errorf("%d coalesced messages over %d flushes", msgs, flushes)
				}
			} else if flushes != 0 {
				t.Errorf("coalescing disabled but %d batches flushed", flushes)
			}
		})
	}
}

// TestStripedCoalescedTrainingSurvivesDrops: the combined striped+coalesced
// configuration must retry through random transfer drops with no corruption:
// bit-identical to its own fault-free run.
func TestStripedCoalescedTrainingSurvivesDrops(t *testing.T) {
	cfg := Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 30 * time.Second,
		Transfer: rdma.TransferOpts{
			Deadline:          8 * time.Second,
			Stripes:           4,
			CoalesceThreshold: 100, // bias coalesces, w stripes — both paths under fire
		},
	}
	const psCount, steps = 1, 15
	cleanLosses, cleanW, cleanBias, _, err := runTransferTraining(t, cfg, psCount, steps, nil)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	var inj *chaos.Injector
	losses, w, bias, ms, err := runTransferTraining(t, cfg, psCount, steps, func(cl *Cluster) {
		inj = chaos.New(chaos.Plan{
			Seed:     23,
			DropRate: 0.12,
			Metrics:  cl.Server("worker0").Metrics,
		})
		inj.Install(cl.Fabric())
		inj.Start()
	})
	defer inj.Stop()
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if got := inj.Counters().Injected[chaos.Drop]; got == 0 {
		t.Fatal("no drops injected; chaos exercised nothing")
	}
	var retries int64
	for _, s := range ms {
		retries += s.Retries
	}
	if retries == 0 {
		t.Error("no retries recorded despite injected drops")
	}
	for i := range cleanLosses {
		if losses[i] != cleanLosses[i] {
			t.Fatalf("loss[%d] = %v under drops, %v clean", i, losses[i], cleanLosses[i])
		}
	}
	for i := range cleanW {
		if w[i] != cleanW[i] {
			t.Fatalf("w[%d] = %v under drops, %v clean", i, w[i], cleanW[i])
		}
	}
	for i := range cleanBias {
		if bias[i] != cleanBias[i] {
			t.Fatalf("bias[%d] = %v under drops, %v clean", i, bias[i], cleanBias[i])
		}
	}
}

// TestStripedCoalescedPartitionFailsTyped: a never-healing partition under
// the combined configuration fails the step with the typed edge timeout (or
// the executor's progress timeout on the starved side) within the deadline.
func TestStripedCoalescedPartitionFailsTyped(t *testing.T) {
	cfg := Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 2 * time.Second,
		Transfer: rdma.TransferOpts{
			Deadline:          1 * time.Second,
			Stripes:           4,
			CoalesceThreshold: 256,
		},
	}
	start := time.Now()
	_, _, _, _, err := runTransferTraining(t, cfg, 1, 20, func(cl *Cluster) {
		cl.Fabric().Partition("ps0", "worker0")
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("training succeeded across a never-healing partition")
	}
	if !errors.Is(err, ErrEdgeTimeout) && !errors.Is(err, exec.ErrPollTimeout) {
		t.Fatalf("err = %v, want ErrEdgeTimeout or exec.ErrPollTimeout", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("typed failure took %v; deadlines were 1s/2s", elapsed)
	}
	t.Logf("failed as expected after %v: %v", elapsed, err)
}

// TestStripeLaneCountRule: one lane-count rule for every edge kind. With
// Stripes=8 over QPsPerPeer=4 an edge gets min(8, 4, MaxStripes) = 4 lanes
// — direct and muxed alike — so its 8 chunks ride 4 distinct QPs, two per
// doorbell, and no lane aliases another's QP. Training stays bit-identical
// to the unstriped run.
func TestStripeLaneCountRule(t *testing.T) {
	base := Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 30 * time.Second,
		QPsPerPeer:  4,
		Transfer:    rdma.TransferOpts{Deadline: 8 * time.Second},
	}
	const psCount, steps = 1, 6
	refLosses, _, _, _, err := runTransferTraining(t, base, psCount, steps, nil)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	for _, v := range []struct {
		name  string
		slots int
	}{{"direct", 0}, {"muxed", 4}} {
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			cfg.QPSlots = v.slots
			cfg.Transfer.Stripes = 8
			losses, _, _, ms, err := runTransferTraining(t, cfg, psCount, steps, nil)
			if err != nil {
				t.Fatalf("%s run: %v", v.name, err)
			}
			for i := range refLosses {
				if losses[i] != refLosses[i] {
					t.Fatalf("loss[%d] = %v, baseline %v", i, losses[i], refLosses[i])
				}
			}
			maxLanes := 0
			for _, s := range ms {
				maxLanes = max(maxLanes, s.ActiveLanes())
			}
			if maxLanes != 4 {
				t.Fatalf("%d active lanes, want min(Stripes 8, QPsPerPeer 4) = 4", maxLanes)
			}
		})
	}
}
