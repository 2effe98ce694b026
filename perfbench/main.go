// Command perfbench is the repository's end-to-end serving benchmark. It
// builds the shipped HTTP service (internal/service) with cmd/dcserved's
// default options, serves it on a loopback listener in this process, and
// drives it with the typed client over at most two connections:
//
//	perfbench --workload session_long --seed 1 --seconds 10 --trace 0
//
// Workloads: session_long (one never-rotated sc session, closed loop),
// pool_wide (4096 uniform items over MaxItems 1024, open loop at fixed
// rates, a max-rate search and a closed-loop capacity phase) and
// mobile_batch (batch-64 hybrid-planner sessions with a shadow panel, the
// flight recorder and cross-connection reads, closed loop).
// BENCHMARK.json at the repository root lists the workloads and metrics;
// README.md beside this file records why each workload was chosen and
// which layer metric should move which end-to-end metric.
//
// With --trace 0 the last line of standard output is one JSON object with
// the end-to-end metrics; with --trace 1 the run additionally replays the
// same request streams in-process through each layer's public functions,
// records one span per layer call, writes the spans under --workdir, and
// reports the per-layer metrics instead. Every run checks the service's
// outputs against the off-line optimum; a failed check makes the result
// incorrect, not slow.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// metricUnits names the unit of every end-to-end metric.
var metricUnits = map[string]string{
	"setup_s":         "s",
	"latency_p50_rel": "ratio",
	"latency_growth":  "ratio",
	"state_mb":        "MB",
	"cost_ratio":      "ratio",
}

type workloadFunc func(ctx context.Context, e *env, seed int64, seconds float64, ck *checker) (*outcome, error)

type workloadDef struct {
	run      workloadFunc
	recorder bool // attach the flight recorder to the service
}

var workloads = map[string]workloadDef{
	"session_long": {run: runSessionLong},
	"pool_wide":    {run: runPoolWide},
	"mobile_batch": {run: runMobileBatch, recorder: true},
}

// setupRounds is how many times a run builds the service; setup_s is the
// median.
const setupRounds = 15

func main() {
	name := flag.String("workload", "", "session_long | pool_wide | mobile_batch")
	seed := flag.Int64("seed", 1, "workload seed: every request stream derives from it")
	seconds := flag.Float64("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1 adds the traced in-process run and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "working directory for recordings and span files")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, workdir string) error {
	def, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if !(seconds > 0) {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	ctx := context.Background()

	// Set-up: build, start and connect the service several times, each
	// from a quiet process (the previous service closed, its garbage
	// collected); the last one serves the run.
	var setups []float64
	var e *env
	for i := 0; i < setupRounds; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = startEnv(seed, workdir, def.recorder); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ck := &checker{}
	// The reference service starts after set-up, so setup_s times the
	// service under test alone.
	ref, err := startRefService()
	if err != nil {
		e.close()
		return err
	}
	e.ref = ref
	steal0, total0 := cpuTicks()
	o, err := def.run(ctx, e, seed, seconds, ck)
	steal1, total1 := cpuTicks()
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	o.metrics["setup_s"] = median(setups)
	o.report["setup_s"] = setups
	if total1 > total0 {
		// Share of the machine's CPU time the hypervisor stole during the
		// run: context for wall-clock figures, which it slows.
		o.report["host_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}

	var metrics map[string]float64
	want := metricUnits
	if trace == 1 {
		want = layerUnits
		layers, table, err := tracedRun(name, seed, workdir, ck)
		if err != nil {
			return err
		}
		o.report["traced"] = table
		layers["loadgen.late_p99_ms"] = summarize(o.late).Tail
		metrics = layers
	} else {
		metrics = o.metrics
	}

	o.report["workload"] = name
	o.report["seed"] = seed
	o.report["failed_frac"] = float64(o.failed) / float64(max(o.attempted, 1))
	o.report["check_failures"] = ck.fails
	o.report["e2e"] = o.metrics
	printReport(o.report)

	out := result{
		Correct:   ck.ok() && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for k, unit := range want {
		v, ok := metrics[k]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured (%v)", k, v)
		}
		out.Metrics[k] = metricValue{Value: v, Unit: unit}
	}
	if len(metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(metrics), len(want))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printReport writes every figure the run measured as one JSON line
// ahead of the result line.
func printReport(report map[string]any) {
	b, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		return
	}
	fmt.Println(string(b))
}
