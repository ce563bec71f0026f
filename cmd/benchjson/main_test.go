package main

import (
	"os"
	"path/filepath"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: j2kcell/internal/t1
cpu: Test CPU
Benchmark_T1EncodeBlock/LL/dense/64x64         	     663	   1914119 ns/op	   8.56 MB/s	    9008 B/op	       8 allocs/op
PASS
ok  	j2kcell/internal/t1	23.154s
`

func writeSample(t *testing.T, text string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseRun(t *testing.T) {
	run, err := parseRun(writeSample(t, sample))
	if err != nil {
		t.Fatal(err)
	}
	if run.Goos != "linux" || run.CPU != "Test CPU" {
		t.Fatalf("env: %+v", run)
	}
	if len(run.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks", len(run.Benchmarks))
	}
	b := run.Benchmarks[0]
	if b.Pkg != "j2kcell/internal/t1" || b.Name != "Benchmark_T1EncodeBlock/LL/dense/64x64" {
		t.Fatalf("identity: %+v", b)
	}
	if b.Iterations != 663 || b.NsPerOp != 1914119 || b.MBPerSec != 8.56 ||
		b.BytesPerOp != 9008 || b.AllocsPerOp != 8 {
		t.Fatalf("metrics: %+v", b)
	}
}

// mixedSample is a row with a custom b.ReportMetric column between the
// standard ones (from bench/baseline_pr9.txt).
const mixedSample = "pkg: j2kcell\n" +
	"BenchmarkMixedConcurrency/shared/c-1                      \t      20\t  64367319 ns/op\t   6.87 MB/s\t         6.000 goroutine-hwm\t 2000098 B/op\t    3056 allocs/op\n"

func TestParseRunKeepsCustomMetrics(t *testing.T) {
	run, err := parseRun(writeSample(t, mixedSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks", len(run.Benchmarks))
	}
	b := run.Benchmarks[0]
	if b.Name != "BenchmarkMixedConcurrency/shared/c-1" || b.Iterations != 20 || b.NsPerOp != 64367319 ||
		b.MBPerSec != 6.87 || b.BytesPerOp != 2000098 || b.AllocsPerOp != 3056 {
		t.Fatalf("standard metrics: %+v", b)
	}
	if len(b.Metrics) != 1 || b.Metrics["goroutine-hwm"] != 6 {
		t.Fatalf("custom metrics: %v", b.Metrics)
	}
	// The standard columns stay out of the map.
	if rb, _ := parseRun(writeSample(t, sample)); rb.Benchmarks[0].Metrics != nil {
		t.Fatalf("standard-only row grew metrics: %v", rb.Benchmarks[0].Metrics)
	}
}

func TestLoadSetsToleratesMissingBaseline(t *testing.T) {
	cur := writeSample(t, sample)
	sets, err := loadSets([]string{
		"baseline=" + filepath.Join(t.TempDir(), "no-such-baseline.txt"),
		"current=" + cur,
	})
	if err != nil {
		t.Fatalf("missing baseline should not be fatal: %v", err)
	}
	if _, ok := sets["baseline"]; ok {
		t.Fatal("missing baseline produced a set")
	}
	if run, ok := sets["current"]; !ok || len(run.Benchmarks) != 1 {
		t.Fatalf("current set not parsed: %+v", sets["current"])
	}
}

func TestLoadSetsStillFailsOnUnreadableFile(t *testing.T) {
	dir := t.TempDir() // a directory, not a file: Open succeeds, read fails
	if _, err := loadSets([]string{"current=" + dir}); err == nil {
		t.Fatal("unreadable input should be fatal")
	}
}

func TestSpeedupsPairAcrossGomaxprocsSuffix(t *testing.T) {
	base := &Run{Benchmarks: []Benchmark{
		{Pkg: "p", Name: "BenchmarkX-2", NsPerOp: 300},
		{Pkg: "p", Name: "BenchmarkOnlyBase-2", NsPerOp: 5},
	}}
	cur := &Run{Benchmarks: []Benchmark{
		{Pkg: "p", Name: "BenchmarkX-8", NsPerOp: 100},
		{Pkg: "p", Name: "BenchmarkOnlyCur-8", NsPerOp: 7},
	}}
	sp := speedups(base, cur)
	if len(sp) != 1 {
		t.Fatalf("got %d speedups, want 1", len(sp))
	}
	if sp[0].Ratio != 3 {
		t.Fatalf("ratio %v, want 3", sp[0].Ratio)
	}
}
