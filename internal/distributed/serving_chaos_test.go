package distributed

import (
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Weight publication under fabric faults. A bank write is one transfer-
// engine write retried as a whole within the publish deadline, so a dropped
// chunk, version word or release ack costs a retry, not the publication.

// calmHeartbeat keeps the failure detector out of these tests: every
// replica stays alive, and a stalled -race run must not evict one.
var calmHeartbeat = HeartbeatConfig{Period: 10 * time.Millisecond, Timeout: 5 * time.Second}

// servesExactly asserts the replica serves version v with bit-exact weights:
// every output element of the affine test model is exactly (n+1)·v.
func servesExactly(t *testing.T, r *serve.Replica, n int, v uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.ActiveVersion() != v {
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at v%d, want v%d", r.Task(), r.ActiveVersion(), v)
		}
		time.Sleep(100 * time.Microsecond)
	}
	ref, ok := r.Acquire()
	if !ok {
		t.Fatalf("%s not serving", r.Task())
	}
	defer ref.Release()
	x, _ := tensor.FromFloat32(tensor.Shape{4, n}, make([]float32, 4*n))
	for i := range x.Float32s() {
		x.Float32s()[i] = 1
	}
	out, err := r.Infer(ref, x)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range out.Float32s() {
		if want := float32(n+1) * float32(ref.Version); ref.Version != v || got != want {
			t.Fatalf("%s row[%d] = %v at v%d, want exactly %v at v%d", r.Task(), i, got, ref.Version,
				float32(n+1)*float32(v), v)
		}
	}
}

// TestServingFleetPublishUnderDrops: with a seeded injector dropping one in
// five one-sided transfers on the fleet fabric, every Publish succeeds,
// every replica serves each version bit-exactly, and no served query is
// more than one version stale.
func TestServingFleetPublishUnderDrops(t *testing.T) {
	const n, versions = 8, 12
	vars := servingTestVars(t, n)
	met := &metrics.Serve{}
	fleet, err := NewServingFleet(ServingConfig{
		Replicas: 2, Spec: servingTestSpec(4, n), Vars: vars, Metrics: met,
		Heartbeat: calmHeartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	inj := chaos.New(chaos.Plan{Seed: 23, DropRate: 0.2})
	inj.Install(fleet.fabric)
	defer inj.Stop()

	x := make([]float32, n)
	for i := range x {
		x[i] = 1
	}
	for v := uint64(1); v <= versions; v++ {
		fillServingVars(t, vars, float32(v))
		got, err := fleet.Publish()
		if err != nil {
			t.Fatalf("publish v%d under drops: %v", v, err)
		}
		if got != v {
			t.Fatalf("published v%d, want v%d", got, v)
		}
		for i := 0; i < 2; i++ {
			servesExactly(t, fleet.Replica(serveReplicaTask(i)), n, v)
		}
		res, err := fleet.Query(x)
		if err != nil {
			t.Fatalf("query after v%d: %v", v, err)
		}
		if res.Staleness > 1 {
			t.Fatalf("served v%d with staleness %d > 1", res.Version, res.Staleness)
		}
		for i, p := range res.Probs {
			if want := float32(n+1) * float32(res.Version); p != want {
				t.Fatalf("query row[%d] = %v at v%d, want exactly %v", i, p, res.Version, want)
			}
		}
	}
	if inj.Counters().Total() == 0 {
		t.Fatal("the injector dropped nothing")
	}
	if s := met.Snapshot(); s.StalenessVersionsMax > 1 {
		t.Fatalf("staleness max %d > 1 under drops", s.StalenessVersionsMax)
	}
}

// TestServingFleetPublishPartitionFailsTyped: a partition between the
// trainer and one replica that never heals makes Publish fail with an error
// wrapping rdma.ErrTimeout once the publish deadline is spent — bounded,
// typed — while the other replica takes the new version and keeps serving.
func TestServingFleetPublishPartitionFailsTyped(t *testing.T) {
	const n = 8
	const publishTimeout = 5 * time.Second // the publisher's default budget
	vars := servingTestVars(t, n)
	fleet, err := NewServingFleet(ServingConfig{
		Replicas: 2, Spec: servingTestSpec(4, n), Vars: vars, Metrics: &metrics.Serve{},
		Heartbeat: calmHeartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	fillServingVars(t, vars, 1)
	if _, err := fleet.Publish(); err != nil {
		t.Fatal(err)
	}
	servesExactly(t, fleet.Replica(serveReplicaTask(1)), n, 1)

	fleet.fabric.Partition(serveTrainerEndpoint, serveReplicaTask(1))
	fillServingVars(t, vars, 2)
	start := time.Now()
	_, err = fleet.Publish()
	elapsed := time.Since(start)
	if !errors.Is(err, rdma.ErrTimeout) {
		t.Fatalf("publish across a partition: err = %v, want rdma.ErrTimeout", err)
	}
	if elapsed > publishTimeout+time.Second {
		t.Fatalf("publish failed after %v, past the %v budget", elapsed, publishTimeout)
	}
	servesExactly(t, fleet.Replica(serveReplicaTask(0)), n, 2)
	servesExactly(t, fleet.Replica(serveReplicaTask(1)), n, 1)
}
