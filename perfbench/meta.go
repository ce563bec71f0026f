package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"

	"j2kcell/internal/simd"
)

// heldOutSeed is the seed a change that claims a gain must re-check its
// claim on, in addition to the seeds it was developed against. It is
// never used while tuning the benchmark itself.
const heldOutSeed = 7919

// stealLimit is the host CPU steal share above which a run is flagged:
// its wall-time metrics then carry host contention and are comparable
// only with runs at a similar steal share.
const stealLimit = 0.05

// meta is the run metadata printed with every result: any of these
// changing makes numbers incomparable.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	HeldOut    uint64  `json:"held_out_seed"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Kernels    string  `json:"simd_kernels"`
	// Steal is the share of CPU time the hypervisor gave to other guests
	// during the run (-1 where procfs does not report it). A high value
	// means the figures carry host contention.
	Steal float64 `json:"cpu_steal_frac"`
}

func runMeta(cfg config, steal float64) meta {
	return meta{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		HeldOut:    heldOutSeed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     buildCommit,
		Kernels:    simd.Kernel(),
		Steal:      steal,
	}
}

// cpuModel reads the processor model name from procfs ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// buildCommit is the source revision, stamped at build time by run.sh
// (-ldflags "-X main.buildCommit=<rev>") when the checkout is a git
// repository.
var buildCommit = "unknown"

// cpuTimes reads the aggregate CPU counters from procfs: total ticks
// and steal ticks.
func cpuTimes() (total, steal int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user..steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}

// stealSince returns the steal share of CPU time since the counters
// (t0, s0) were read, or -1.
func stealSince(t0, s0 int64, ok0 bool) float64 {
	t1, s1, ok1 := cpuTimes()
	if !ok0 || !ok1 || t1 <= t0 {
		return -1
	}
	return float64(s1-s0) / float64(t1-t0)
}
