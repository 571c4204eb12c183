// Command perfbench measures the emulated RDMA training and serving stack
// end to end, and layer by layer, on three workloads:
//
//	train-ps-bulk   PS data-parallel MLP training, ≥1 MB tensors, striped and coalesced
//	train-dyn-fine  model-parallel chain whose per-step batch makes every cut edge dynamic
//	serve-publish   a two-replica serving fleet under an open-loop rate ladder while
//	                the trainer publishes a new weight version on a fixed cadence
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload train-ps-bulk --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the last stdout line is one JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics
// (layer ladder, program counters and histograms, span-derived self time)
// and the spans are written under .bench_build/spans. Every input is
// generated from --seed. A failed output check prints "correct": false and
// exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are one invocation's inputs.
type params struct {
	seed     int64
	duration time.Duration
	trace    bool
}

// report collects a run's metrics and output-check failures.
type report struct {
	metrics   map[string]metric
	problems  []string
	attempted int64
	failed    int64
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// check records an output-check failure unless ok holds.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(params, *report) error{
	"train-ps-bulk":  func(p params, r *report) error { return runTrain(psBulk, p, r) },
	"train-dyn-fine": func(p params, r *report) error { return runTrain(dynFine, p, r) },
	"serve-publish":  runServe,
}

func main() {
	workload := flag.String("workload", "", "train-ps-bulk, train-dyn-fine or serve-publish")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "length of one run's measurement")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			*workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	p := params{seed: *seed, duration: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1}
	env := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *traceFlag,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	envJSON, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Printf("# env %s\n", envJSON)

	rep := newReport()
	if err := run(p, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, msg := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %s\n", msg)
	}
	out, err := json.Marshal(result{
		Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

// spanFile returns where a traced run writes its spans, relative to the
// repository root it runs from.
func spanFile(p params, workload string) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", workload, p.seed))
}
