// Command perfbench is the repository benchmark of the j2kcell codec.
//
// One invocation runs one workload for a fixed time and prints, as the
// last line of standard output, a JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones (BENCHMARK.json "end_to_end"); with --trace 1 a
// separate, traced run reports the per-layer ones ("per_layer"). Lines
// before the JSON are a human-readable table giving each metric's
// sample count, and the run metadata.
//
//	bash perfbench/run.sh --workload encode_warm --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how the per-layer
// metrics map onto the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	// opWorkers is every operation's pipeline width: a single-worker
	// operation runs inline and would bypass the shared scheduler.
	opWorkers = 2
	// clients is the closed-loop client count of the warm workloads (at
	// most nproc = 2 concurrent operations).
	clients = 2
	// psnrFloor is the least PSNR a rate-0.1 output may have (the dial
	// images reach 40-46 dB at rate 0.1).
	psnrFloor = 30.0
)

// workloads names the benchmark's workloads, in BENCHMARK.json order.
var workloads = []string{"cold_oneshot", "encode_warm", "decode_warm"}

// config sizes one run. Tests shrink it.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	coldEdge  int     // cold_oneshot input edge
	encEdges  []int   // encode_warm image pool edges
	decEdge   int     // decode_warm source edge
	tile      int     // tile edge of the tiled modes
	setupReps int     // least set-ups per run; setup_s is their median
	setupSecs float64 // more set-ups (up to 3×setupReps) until this much time has passed
	coreEdge  int     // Cell-model rows run on the dial at this edge, seed 42
	layerSecs float64 // time budget of each leaf-layer timing (at least 3 calls)
	exe       string  // this program, re-executed for cold-start children
	workDir   string  // cold-start inputs, inside the checkout
	corrupt   bool    // test hook: damage every timed output before it is checked
}

func defaultConfig() config {
	return config{
		coldEdge:  512,
		encEdges:  []int{256, 512, 512, 512, 1024},
		decEdge:   1024,
		tile:      256,
		setupReps: 3,
		setupSecs: 3,
		coreEdge:  384,
		layerSecs: 0.25,
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	samples   map[string]int
	notes     []string
	steal     float64 // CPU steal share during the run (metadata)
}

func newReport() *report {
	return &report{Correct: true, Metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds attempted and failed operations.
func (r *report) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 {
		r.Correct = false
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := defaultConfig()
	fs.StringVar(&cfg.workload, "workload", "", "workload: cold_oneshot, encode_warm or decode_warm")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured time per run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	var ch childArgs
	fs.StringVar(&ch.kind, "child", "", "internal: run one cold-start operation of this kind and exit")
	fs.StringVar(&ch.dir, "dir", "", "internal: cold-start input directory")
	fs.StringVar(&ch.ref, "ref", "", "internal: reference digest of the expected decode")
	fs.StringVar(&ch.region, "region", "", "internal: x0,y0,w,h decode window")
	fs.IntVar(&ch.tile, "tile", 256, "internal: tile edge of the tiled encode")
	fs.BoolVar(&ch.corrupt, "corrupt", false, "internal: damage the output before it is checked")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if ch.kind != "" {
		ch.trace = cfg.trace
		return runChild(ch, stdout, stderr)
	}
	if !known(cfg.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", cfg.workload, workloads)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg.exe = exe
	cfg.workDir = filepath.Join(".bench_build", "perfbench-work", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	defer os.RemoveAll(cfg.workDir)

	t0, s0, ok0 := cpuTimes()
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.steal = stealSince(t0, s0, ok0)
	if rep.steal > stealLimit {
		rep.note("host CPU steal %.3f is above %.2f: wall-time metrics (op_ms_*, ops_per_s) carry host contention; compare them only with runs at a similar steal share", rep.steal, stealLimit)
	}
	writeReport(stdout, cfg, rep)
	return 0
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// runWorkload dispatches one run.
func runWorkload(cfg config) (*report, error) {
	if cfg.workload == "cold_oneshot" {
		return runCold(cfg)
	}
	return runWarm(cfg)
}

// writeReport prints the metadata, the metric table with sample counts,
// and the final JSON line.
func writeReport(w io.Writer, cfg config, rep *report) {
	// JSON has no NaN: a metric left without samples (only possible when
	// operations failed) is printed as -1 and the run marked incorrect.
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.Metrics[k] = metric{Value: -1, Unit: m.Unit}
			rep.Correct = false
		}
	}
	meta, _ := json.Marshal(runMeta(cfg, rep.steal))
	fmt.Fprintf(w, "# meta %s\n", meta)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# note %s\n", n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %-34s %14s %-8s %s\n", "metric", "value", "unit", "samples")
	for _, k := range names {
		m := rep.Metrics[k]
		fmt.Fprintf(w, "# %-34s %14.6g %-8s n=%d\n", k, m.Value, m.Unit, rep.samples[k])
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%v\n", rep.Attempted, rep.Failed, rep.Correct)
	b, _ := json.Marshal(rep)
	fmt.Fprintf(w, "%s\n", b)
}

// repeatSetup runs build at least cfg.setupReps times, and more (up to
// three times as many) until cfg.setupSecs have passed. Garbage is
// collected after each, so one set-up's leftovers inflate neither the
// next nor the timed window.
func repeatSetup(cfg config, build func() error) ([]float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < max(cfg.setupReps, 1) || (elapsed(start) < cfg.setupSecs && len(times) < 3*cfg.setupReps) {
		t := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		times = append(times, elapsed(t))
		runtime.GC()
	}
	return times, nil
}

// elapsed is a small helper for seconds since t.
func elapsed(t time.Time) float64 { return time.Since(t).Seconds() }
