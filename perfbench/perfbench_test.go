package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"j2kcell/internal/obs"
)

// childEnv makes a re-executed test binary act as a cold-start child.
const childEnv = "PERFBENCH_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Setenv(childEnv, "1")
	os.Exit(m.Run())
}

// tinyConfig shrinks every workload so one run takes about a second.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 3
	cfg.seconds = 0.2
	cfg.trace = trace
	cfg.coldEdge = 64
	cfg.encEdges = []int{64, 96}
	cfg.decEdge = 128
	cfg.tile = 32
	cfg.setupReps = 2
	cfg.setupSecs = 0
	cfg.coreEdge = 64
	cfg.layerSecs = 0.001
	cfg.exe = exe
	cfg.workDir = t.TempDir()
	return cfg
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func runTiny(t *testing.T, cfg config) *report {
	t.Helper()
	rep, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.workload, cfg.trace, err)
	}
	return rep
}

// TestEveryMetricEmitted runs each workload at a tiny size, untraced and
// traced, and checks that every metric BENCHMARK.json names is printed
// with its unit, that the outputs checked out, and that the last output
// line is the result object.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloads)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w, trace)
			rep := runTiny(t, cfg)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", w, trace, rep.Correct, rep.Attempted, rep.Failed, rep.notes)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, trace, m.Name, got.Unit, m.Unit)
				}
			}
			var out bytes.Buffer
			writeReport(&out, cfg, rep)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s: result keys %v", w, last)
			}
		}
	}
}

// TestDeterministicMetrics runs each workload twice with the same seed:
// compressed size, PSNR, the per-operation work counts and the Cell
// model rows must repeat exactly.
func TestDeterministicMetrics(t *testing.T) {
	exact := []string{
		"lossless_bpp", "lossy_psnr_db",
		"t1.pass_keep_frac", "t1.coded_decisions_per_op", "mq.renorm_chunks_per_op",
		"rate.probes_per_op", "dwt.bytes_moved_per_op",
		"core.model_ms.fig4_1spe", "core.model_ms.fig4_16spe_2ppe", "core.model_ms.fig5_16spe_2ppe",
		"core.dma_mb.fig4_16spe_2ppe", "core.rate_share.fig5_16spe_2ppe",
	}
	for _, w := range workloads {
		var runs [2]map[string]metric
		for i := range runs {
			runs[i] = map[string]metric{}
			for _, trace := range []bool{false, true} {
				rep := runTiny(t, tinyConfig(t, w, trace))
				for k, v := range rep.Metrics {
					runs[i][k] = v
				}
			}
		}
		for _, k := range exact {
			a, b := runs[0][k], runs[1][k]
			if a.Value != b.Value {
				t.Errorf("%s: %s differs across runs of one seed: %v vs %v", w, k, a.Value, b.Value)
			}
		}
	}
}

// TestCorruptedOutputCountsAsFailed damages every timed output: each
// workload must finish, count the operations as failed and report the
// run as incorrect, not crash.
func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	for _, w := range workloads {
		cfg := tinyConfig(t, w, false)
		cfg.corrupt = true
		rep := runTiny(t, cfg)
		if rep.Correct || rep.Attempted == 0 || rep.Failed != rep.Attempted {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want every operation failed", w, rep.Correct, rep.Attempted, rep.Failed)
		}
		if got := rep.Metrics["ops_ok_frac"].Value; got != 0 {
			t.Errorf("%s: ops_ok_frac=%v, want 0", w, got)
		}
		var out bytes.Buffer
		writeReport(&out, cfg, rep)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct {
			t.Errorf("%s: result line %q (err %v)", w, lines[len(lines)-1], err)
		}
	}
}

// TestStageSelf checks the stage self times and coverage on a
// hand-built timeline: two lanes, a tile envelope with a nested stage,
// an envelope-only gap and a stretch no span covers.
func TestStageSelf(t *testing.T) {
	spans := []obs.TSpan{
		{Track: "worker0", Stage: obs.StageEncode, Start: 0, End: 100},
		{Track: "worker0", Stage: obs.StageMCT, Start: 0, End: 10},
		{Track: "worker1", Stage: obs.StageMCT, Start: 0, End: 10},
		{Track: "worker1", Stage: obs.StageTile, Start: 10, End: 50},
		{Track: "worker1", Stage: obs.StageT1, Start: 20, End: 40},
		{Track: "worker0", Stage: obs.StageRate, Start: 30, End: 40},
		{Track: "worker0", Stage: obs.StageT2, Start: 60, End: 70},
	}
	self, covered := stageSelf(spans)
	want := map[string]int64{"mct": 20, "tile": 20, "t1": 20, "rate": 10, "t2": 10}
	for g, v := range want {
		if self[g] != v {
			t.Errorf("self[%s] = %d, want %d (all: %v)", g, self[g], v, self)
		}
	}
	if covered != 60 {
		t.Errorf("covered = %d, want 60", covered)
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}
