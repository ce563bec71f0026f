// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON report, optionally comparing labeled runs.
//
// Each argument is label=path (path "-" reads stdin); every file is one
// benchmark run. When both a "baseline" and a "current" set are given,
// the report includes per-benchmark speedup ratios for benchmarks
// present in both, which is how BENCH_*.json files record a PR's
// before/after numbers in one committed artifact.
//
//	go test -bench . -benchmem ./internal/t1/ > current.txt
//	benchjson -o BENCH_pr2.json baseline=bench/baseline_pr1.txt current=current.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Pkg         string  `json:"pkg,omitempty"`
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds every other `value unit` column, keyed by unit —
	// the b.ReportMetric outputs such as goroutine-hwm or model-ms.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Run is one benchmark invocation: its environment plus results.
type Run struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Speedup compares one benchmark across the baseline and current runs.
type Speedup struct {
	Pkg        string  `json:"pkg,omitempty"`
	Name       string  `json:"name"`
	BaselineNs float64 `json:"baseline_ns_per_op"`
	CurrentNs  float64 `json:"current_ns_per_op"`
	Ratio      float64 `json:"speedup"` // baseline / current; >1 is faster
}

// Report is the full JSON document.
type Report struct {
	Sets     map[string]*Run `json:"sets"`
	Speedups []Speedup       `json:"speedups,omitempty"`
}

// benchLine matches a result row: name, iteration count, ns/op, and
// whatever -benchmem / throughput columns follow.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

func parseRun(path string) (*Run, error) {
	var f *os.File
	if path == "-" {
		f = os.Stdin
	} else {
		var err error
		f, err = os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
	}
	run := &Run{}
	pkg := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			run.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			run.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			run.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.Atoi(m[2])
		ns, _ := strconv.ParseFloat(m[3], 64)
		b := Benchmark{Pkg: pkg, Name: m[1], Iterations: iters, NsPerOp: ns}
		for _, field := range strings.Split(m[4], "\t") {
			field = strings.TrimSpace(field)
			switch {
			case strings.HasSuffix(field, " MB/s"):
				b.MBPerSec, _ = strconv.ParseFloat(strings.TrimSuffix(field, " MB/s"), 64)
			case strings.HasSuffix(field, " B/op"):
				b.BytesPerOp, _ = strconv.ParseInt(strings.TrimSuffix(field, " B/op"), 10, 64)
			case strings.HasSuffix(field, " allocs/op"):
				b.AllocsPerOp, _ = strconv.ParseInt(strings.TrimSuffix(field, " allocs/op"), 10, 64)
			default:
				val, unit, ok := strings.Cut(field, " ")
				v, err := strconv.ParseFloat(val, 64)
				if !ok || err != nil {
					continue
				}
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		run.Benchmarks = append(run.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return run, nil
}

// key identifies a benchmark across runs. The -N GOMAXPROCS suffix is
// stripped so runs from differently-sized machines still pair up.
func key(b Benchmark) string {
	name := b.Name
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return b.Pkg + " " + name
}

func speedups(base, cur *Run) []Speedup {
	byKey := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byKey[key(b)] = b
	}
	var out []Speedup
	for _, c := range cur.Benchmarks {
		b, ok := byKey[key(c)]
		if !ok || c.NsPerOp == 0 {
			continue
		}
		out = append(out, Speedup{
			Pkg: c.Pkg, Name: c.Name,
			BaselineNs: b.NsPerOp, CurrentNs: c.NsPerOp,
			Ratio: b.NsPerOp / c.NsPerOp,
		})
	}
	return out
}

// loadSets parses every label=path argument. A path that does not
// exist is tolerated with a warning — fresh checkouts have no recorded
// baseline yet, so the report simply omits that set (and with it the
// speedup comparison); any other parse failure is fatal.
func loadSets(args []string) (map[string]*Run, error) {
	sets := map[string]*Run{}
	for _, arg := range args {
		label, path, ok := strings.Cut(arg, "=")
		if !ok {
			label, path = "current", arg
		}
		run, err := parseRun(path)
		if err != nil {
			if os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "benchjson: warning: %s: %v (set %q omitted)\n", path, err, label)
				continue
			}
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		sets[label] = run
	}
	return sets, nil
}

func main() {
	out := flag.String("o", "-", "output file (- for stdout)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchjson [-o out.json] label=benchfile ...")
		os.Exit(2)
	}
	sets, err := loadSets(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep := Report{Sets: sets}
	if base, cur := rep.Sets["baseline"], rep.Sets["current"]; base != nil && cur != nil {
		rep.Speedups = speedups(base, cur)
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
