package distributed

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/serve"
)

// Serving-plane wiring. The serve package owns the mechanism (publisher,
// banks, frontend); this file owns the fleet: one trainer endpoint and N
// replica endpoints on a fabric, the control-plane exchange that hands the
// publisher each replica's bank descriptors, and the same lease-based
// failure detector the training cluster uses — a replica that stops
// answering pings is evicted from routing and from the publication set,
// and a restarted incarnation is readmitted with a catch-up republish.

// serveTrainerEndpoint is the publisher's fabric address; replicas are
// serveReplicaTask(i).
const serveTrainerEndpoint = "serve-trainer"

func serveReplicaTask(i int) string { return fmt.Sprintf("replica%d", i) }

// ServingConfig parameterizes NewServingFleet.
type ServingConfig struct {
	// Replicas is the inference fleet size (≥ 1).
	Replicas int
	// Spec is the forward-only model every replica serves; its variable
	// names and shapes must match Vars (the layout contract).
	Spec serve.ForwardSpec
	// Vars is the trainer-side variable store snapshots are taken from.
	Vars *exec.VarStore
	// Lanes is the fleet's one lane knob: the QPs per peer of every fleet
	// device, and so the lanes each bank publication stripes over
	// (default 2, at most rdma.MaxStripes used).
	Lanes int
	// MaxQueue / BatchWait tune frontend admission (serve defaults apply).
	MaxQueue  int
	BatchWait time.Duration
	// Heartbeat tunes the replica failure detector.
	Heartbeat HeartbeatConfig
	// Metrics receives serving counters; Recovery detector counters; Hists
	// latency histograms. All optional except Metrics' staleness gauge
	// consumers (nil disables).
	Metrics  *metrics.Serve
	Recovery *metrics.Recovery
	Hists    *metrics.Set
}

// servingReplica pairs a replica with the device that backs its banks.
type servingReplica struct {
	rep *serve.Replica
	dev *rdma.Device
}

// ServingFleet is one serving deployment: publisher, replicas, routing
// table, frontend, and the failure detector watching the replicas.
type ServingFleet struct {
	cfg      ServingConfig
	fabric   *rdma.Fabric
	tdev     *rdma.Device
	layout   *serve.WeightLayout
	pub      *serve.WeightPublisher
	table    *serve.RoutingTable
	frontend *serve.Frontend
	detector *heartbeatDetector

	mu       sync.Mutex
	replicas map[string]*servingReplica

	closeOnce sync.Once
}

// NewServingFleet builds and starts the fleet: every replica registered
// with the publisher, routing live, the frontend accepting queries, and
// the detector pinging. Nothing is published yet — call Publish per
// snapshot interval.
func NewServingFleet(cfg ServingConfig) (*ServingFleet, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("%w: serving fleet needs ≥1 replica", ErrSetup)
	}
	if cfg.Vars == nil || cfg.Spec.Build == nil {
		return nil, fmt.Errorf("%w: serving fleet needs Vars and Spec", ErrSetup)
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = 2
	}
	if cfg.Recovery == nil {
		cfg.Recovery = &metrics.Recovery{}
	}
	layout, err := serve.LayoutFor(cfg.Vars, nil)
	if err != nil {
		return nil, err
	}
	fabric := rdma.NewFabric()
	tdev, err := rdma.CreateDevice(fabric, rdma.Config{
		Endpoint: serveTrainerEndpoint, QPsPerPeer: cfg.Lanes,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: creating publisher device: %w", ErrSetup, err)
	}
	pub, err := serve.NewWeightPublisher(serve.PublisherConfig{
		Dev: tdev, Vars: cfg.Vars, Layout: layout, Metrics: cfg.Metrics, Hists: cfg.Hists,
	})
	if err != nil {
		tdev.Close()
		return nil, err
	}
	f := &ServingFleet{
		cfg: cfg, fabric: fabric, tdev: tdev, layout: layout, pub: pub,
		table:    serve.NewRoutingTable(cfg.Metrics),
		replicas: make(map[string]*servingReplica, cfg.Replicas),
	}

	tasks := make([]string, cfg.Replicas)
	for i := range tasks {
		tasks[i] = serveReplicaTask(i)
		if err := f.startReplica(tasks[i]); err != nil {
			f.Close()
			return nil, err
		}
	}

	// Replica death: routing eviction plus removal from the publication
	// set, so one dead replica neither serves stale answers nor stalls the
	// trainer's next publish at its unreleased banks.
	f.detector, err = newHeartbeatDetector(fabric, tasks, cfg.Heartbeat, cfg.Recovery,
		func(task string) {
			f.table.MarkDead(task)
			f.pub.RemoveReplica(task)
		})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.detector.start()

	f.frontend, err = serve.NewFrontend(serve.FrontendConfig{
		Table: f.table, Spec: cfg.Spec,
		MaxQueue: cfg.MaxQueue, BatchWait: cfg.BatchWait,
		TrainerVersion: pub.Version,
		Metrics:        cfg.Metrics, Hists: cfg.Hists,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.frontend.Start()
	return f, nil
}

// startReplica brings one replica endpoint up and wires it to the
// publisher: bank descriptors flow publisher-ward, the ack descriptor
// replica-ward — the §3.1 control-plane exchange, after which the data
// path is purely one-sided.
func (f *ServingFleet) startReplica(task string) error {
	dev, err := rdma.CreateDevice(f.fabric, rdma.Config{
		Endpoint: task, QPsPerPeer: f.cfg.Lanes,
	})
	if err != nil {
		return fmt.Errorf("%w: creating replica %s: %w", ErrSetup, task, err)
	}
	// Replicas answer the same lease pings as training servers.
	dev.RegisterRPC(leasePingMethod, func(from string, req []byte) ([]byte, error) {
		return req, nil
	})
	rep, err := serve.NewReplica(serve.ReplicaConfig{
		Task: task, Dev: dev, Layout: f.layout, Spec: f.cfg.Spec,
		PublisherTask: serveTrainerEndpoint,
		Metrics:       f.cfg.Metrics, Hists: f.cfg.Hists,
	})
	if err != nil {
		dev.Close()
		return err
	}
	if err := f.pub.AddReplica(rep.Target()); err != nil {
		dev.Close()
		return err
	}
	ack, err := f.pub.AckRegion(task)
	if err != nil {
		dev.Close()
		return err
	}
	rep.SetAckRegion(ack)
	rep.Start()
	f.mu.Lock()
	f.replicas[task] = &servingReplica{rep: rep, dev: dev}
	f.mu.Unlock()
	f.table.Add(rep)
	return nil
}

// Publish snapshots the trainer store as the next weight version and fans
// it out; call every K training steps.
func (f *ServingFleet) Publish() (uint64, error) { return f.pub.Publish() }

// Version returns the last fully committed publication.
func (f *ServingFleet) Version() uint64 { return f.pub.Version() }

// Query routes one query through the frontend.
func (f *ServingFleet) Query(x []float32) (serve.Result, error) {
	return f.frontend.Query(x)
}

// Frontend exposes the admission queue (benchmarks drive it directly).
func (f *ServingFleet) Frontend() *serve.Frontend { return f.frontend }

// Table exposes the routing table.
func (f *ServingFleet) Table() *serve.RoutingTable { return f.table }

// Replica returns the named replica (nil if unknown or killed).
func (f *ServingFleet) Replica(task string) *serve.Replica {
	f.mu.Lock()
	defer f.mu.Unlock()
	if sr, ok := f.replicas[task]; ok {
		return sr.rep
	}
	return nil
}

// KillReplica simulates a replica crash: the swap loop dies with the
// process and the device leaves the fabric mid-whatever, exactly like a
// training-server kill. Detection and eviction are the detector's job.
func (f *ServingFleet) KillReplica(task string) error {
	f.mu.Lock()
	sr, ok := f.replicas[task]
	delete(f.replicas, task)
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: unknown replica %q", ErrSetup, task)
	}
	sr.rep.Close()
	sr.dev.Close()
	return nil
}

// AwaitDead blocks until the detector has expired the task's lease.
func (f *ServingFleet) AwaitDead(task string, wait time.Duration) bool {
	return f.detector.confirmDead(task, wait)
}

// RestartReplica readmits a crashed replica under its old task name: fresh
// device and banks, re-registration with the publisher, a catch-up
// republish of the current version, and routing re-admission. The lease is
// suspended across the rebuild so the restart window is not scored as a
// second outage.
func (f *ServingFleet) RestartReplica(task string) error {
	f.detector.suspend(task)
	if err := f.startReplica(task); err != nil {
		return err
	}
	if _, err := f.pub.Republish(task); err != nil {
		return err
	}
	f.cfg.Recovery.AddRejoin()
	f.detector.resume(task)
	return nil
}

// Close tears the fleet down: frontend first (stop admitting), then the
// detector, then replicas and the trainer device.
func (f *ServingFleet) Close() {
	f.closeOnce.Do(func() {
		if f.frontend != nil {
			f.frontend.Close()
		}
		if f.detector != nil {
			f.detector.stop()
		}
		f.mu.Lock()
		reps := make([]*servingReplica, 0, len(f.replicas))
		for _, sr := range f.replicas {
			reps = append(reps, sr)
		}
		f.replicas = make(map[string]*servingReplica)
		f.mu.Unlock()
		for _, sr := range reps {
			sr.rep.Close()
			sr.dev.Close()
		}
		f.tdev.Close()
	})
}
