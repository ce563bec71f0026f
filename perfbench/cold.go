package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"j2kcell"
	"j2kcell/internal/dwt"
	"j2kcell/internal/pnm"
	"j2kcell/internal/quant"
)

// coldCycle is the cold_oneshot mix: each entry runs in its own fresh
// process, in this order. Lossless decode needs no gain table and is
// the control. Lossless encode comes twice per cycle: with four equal
// shares the median would fall exactly between the lossless-encode and
// the lossy latency clusters and swing with either; weighted 2:1:1:1 it
// lies inside the lossless-encode cluster.
var coldCycle = []string{"lossless_mq", "lossy_mq", "full_lossy", "full_lossless", "lossless_mq"}

// coldExtra are the kinds a traced cold run adds per cycle, so every
// codec.op_ms kind has a cold first-operation figure.
var coldExtra = []string{"lossless_ht", "lossless_tiled", "thumb", "region", "layer1"}

// coldFiles are the pre-written inputs of the cold-start children.
type coldFiles struct {
	dir    string
	region j2kcell.Rect
	refs   map[string]string // child kind -> reference digest of its decode
	src    *j2kcell.Image
}

// setUpCold generates the input, writes it and its pre-encoded streams,
// computes each decode's reference digest with a single-worker decode,
// and starts one no-op child (the process start-up every cold operation
// pays).
func setUpCold(cfg config) (*coldFiles, error) {
	rng := rand.New(rand.NewPCG(cfg.seed, 0xc01d))
	src := dialImage(cfg.coldEdge, rng)
	cf := &coldFiles{dir: cfg.workDir, src: src, refs: map[string]string{}}
	cf.region = quarterWindow(src.W, src.H, rng.Uint64(), rng.Uint64())
	if err := os.MkdirAll(cf.dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(cf.dir, "src.ppm"))
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if err := pnm.Encode(w, src); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	streams := map[string]j2kcell.Options{
		"lossless": {Lossless: true},
		"lossy":    {Rate: 0.1},
		"layered":  {LayerRates: layeredRates},
	}
	data := map[string][]byte{}
	for name, opt := range streams {
		d, _, err := j2kcell.EncodeParallel(src, opt, opWorkers)
		if err != nil {
			return nil, fmt.Errorf("cold set-up: encode %s: %w", name, err)
		}
		data[name] = d
		if err := os.WriteFile(filepath.Join(cf.dir, name+".j2c"), d, 0o644); err != nil {
			return nil, err
		}
	}
	for _, k := range []string{"full_lossy", "full_lossless", "thumb", "region", "layer1"} {
		stream, dk := childStream(k)
		ref, err := j2kcell.DecodeWith(data[stream], decOptions(dk, cf.region, 1))
		if err != nil {
			return nil, fmt.Errorf("cold set-up: reference %s: %w", k, err)
		}
		cf.refs[k] = digest(ref)
	}
	if cf.refs["full_lossless"] != digest(src) {
		return nil, fmt.Errorf("cold set-up: single-worker lossless decode differs from the source")
	}
	r, _, err := spawnChild(cfg, []string{"--child", "noop"})
	if err != nil {
		return nil, err
	}
	if !r.OK {
		return nil, fmt.Errorf("cold set-up: no-op child: %s", r.Err)
	}
	return cf, nil
}

// childStream maps a cold decode kind to the stream it reads and its
// codec.op_ms decode kind.
func childStream(kind string) (stream, decKind string) {
	switch kind {
	case "full_lossy":
		return "lossy", "full"
	case "full_lossless":
		return "lossless", "full"
	}
	return "layered", kind
}

// opKind maps a cold child kind to its codec.op_ms kind.
func opKind(kind string) string {
	if strings.HasPrefix(kind, "full_") {
		return "full"
	}
	return kind
}

// coldOp runs one child for kind and returns its record.
func coldOp(cfg config, cf *coldFiles, kind string, trace bool) (opRec, error) {
	args := []string{"--child", kind, "--dir", cf.dir, "--tile", strconv.Itoa(cfg.tile)}
	if ref, ok := cf.refs[kind]; ok {
		args = append(args, "--ref", ref)
	}
	if kind == "region" {
		r := cf.region
		args = append(args, "--region", fmt.Sprintf("%d,%d,%d,%d", r.X0, r.Y0, r.W, r.H))
	}
	if trace {
		args = append(args, "--trace", "1")
	}
	if cfg.corrupt {
		args = append(args, "--corrupt")
	}
	r, rss, err := spawnChild(cfg, args)
	r.Kind = opKind(kind)
	if r.RSSKB == 0 { // procfs gave the child no peak: take its whole life's
		r.RSSKB = rss
	}
	return r, err
}

// coldCycles runs whole cycles of kinds, one fresh child each, until dur
// has passed, and returns the records and the wall time.
func coldCycles(cfg config, cf *coldFiles, kinds []string, dur time.Duration, trace bool) ([]opRec, time.Duration, error) {
	var recs []opRec
	start := time.Now()
	for len(recs) == 0 || time.Since(start) < dur {
		for _, k := range kinds {
			r, err := coldOp(cfg, cf, k, trace)
			if err != nil {
				return nil, 0, err
			}
			recs = append(recs, r)
		}
	}
	return recs, time.Since(start), nil
}

// runCold runs cold_oneshot.
func runCold(cfg config) (*report, error) {
	var cf *coldFiles
	setupTimes, err := repeatSetup(cfg, func() (err error) {
		cf, err = setUpCold(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		recs, wall, err := coldCycles(cfg, cf, coldCycle, dur, false)
		if err != nil {
			return nil, err
		}
		e2eCold(rep, recs, wall, setupTimes, cf)
		return rep, nil
	}
	base, _, err := coldCycles(cfg, cf, coldCycle, dur/3, false)
	if err != nil {
		return nil, err
	}
	all := append(append([]string(nil), coldCycle...), coldExtra...)
	tr, _, err := coldCycles(cfg, cf, all, dur-dur/3, true)
	if err != nil {
		return nil, err
	}
	rep.count(len(base), failedOf(base))
	rep.count(len(tr), failedOf(tr))
	var claims, switches float64
	hwm := 0
	var std []opRec
	for _, r := range tr {
		claims += float64(r.PoolClaims)
		switches += float64(r.LaneSwitches)
		hwm = max(hwm, r.Goroutines)
	}
	for i, r := range tr {
		if i%len(all) < len(coldCycle) {
			std = append(std, r)
		}
	}
	var streams [][]byte
	for _, n := range []string{"lossless", "lossy", "layered"} {
		d, err := os.ReadFile(filepath.Join(cf.dir, n+".j2c"))
		if err != nil {
			return nil, err
		}
		streams = append(streams, d)
	}
	return rep, perLayer(cfg, rep, layerInputs{
		window:     tr,
		overhead:   std,
		baseP50:    p50ms(base),
		poolClaims: claims / float64(len(tr)),
		switches:   switches / float64(len(tr)),
		goHWM:      hwm,
		img:        cf.src,
		streams:    streams,
	})
}

func failedOf(recs []opRec) int {
	n := 0
	for _, r := range recs {
		if !r.OK {
			n++
		}
	}
	return n
}

// e2eCold fills the end-to-end metrics of cold_oneshot.
func e2eCold(rep *report, recs []opRec, wall time.Duration, setupTimes []float64, cf *coldFiles) {
	n := len(recs)
	failed := failedOf(recs)
	rep.count(n, failed)
	var alloc, cpu, check float64
	var rss, bpp, psnrs []float64
	for _, r := range recs {
		alloc += float64(r.Alloc)
		cpu += float64(r.CPUNS)
		check += float64(r.CheckNS)
		rss = append(rss, kibToMB(r.RSSKB))
		if r.OK && r.Kind == "lossless_mq" {
			bpp = append(bpp, bitsPerPixel(r.Bytes, cf.src.W, cf.src.H))
		}
		if r.OK && r.Kind == "lossy_mq" {
			psnrs = append(psnrs, r.PSNR)
		}
	}
	ms := opMillis(recs)
	rep.set("setup_s", median(setupTimes), "s", len(setupTimes))
	rep.set("op_ms_p50", quantile(ms, 0.5), "ms", n)
	rep.set("op_ms_p90", quantile(ms, 0.9), "ms", n)
	// The children's own output checks are the benchmark's work, not
	// the operation's: their time leaves the span ops_per_s divides by.
	rep.set("ops_per_s", float64(n)/(wall.Seconds()-check/1e9), "1/s", n)
	rep.set("cpu_ms_per_op", cpu/1e6/float64(n), "ms", n)
	rep.set("alloc_mb_per_op", alloc/1e6/float64(n), "MB", n)
	rep.set("peak_rss_mb", median(rss), "MB", n)
	rep.set("ops_ok_frac", float64(n-failed)/float64(n), "frac", n)
	rep.set("lossless_bpp", median(bpp), "bit/px", len(bpp))
	rep.set("lossy_psnr_db", median(psnrs), "dB", len(psnrs))
	rep.note("ops_failed_frac=%.6g (%d of %d); %d whole cycles of %d processes", float64(failed)/float64(n), failed, n, n/len(coldCycle), len(coldCycle))
	rep.note("op_ms p50 by kind: %s", kindMedians(recs))
	rep.note("children's output checks: %.1f%% of the window, left out of ops_per_s", 100*check/1e9/wall.Seconds())
}

// maxRSSKB is an exited child's peak resident set in KiB.
func maxRSSKB(ps *os.ProcessState) int64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

// childArgs configures one cold-start child.
type childArgs struct {
	kind    string
	dir     string
	ref     string
	region  string
	tile    int
	trace   bool
	corrupt bool
}

// runChild is the cold-start child: it reads its pre-written input,
// times exactly one call — the first codec operation of this process —
// reads its peak resident set, checks the result outside the timed
// window, and prints its record as one JSON line. The record carries
// how long the check took, so the parent can leave it out.
func runChild(a childArgs, stdout, stderr io.Writer) int {
	rec, err := childOp(a)
	if err != nil {
		rec.Err = err.Error()
		rec.OK = false
	}
	b, _ := json.Marshal(rec)
	fmt.Fprintf(stdout, "%s\n", b)
	if !rec.OK {
		fmt.Fprintln(stderr, "perfbench child:", rec.Err)
		return 1
	}
	return 0
}

func childOp(a childArgs) (rec opRec, err error) {
	rec = opRec{Kind: opKind(a.kind)}
	switch a.kind {
	case "noop":
		rec.OK = true
		return rec, nil
	case "gains53", "gains97":
		// The first synthesis-gain lookup of a process: the one-time
		// calibration every cold operation of that filter pays.
		t := time.Now()
		var g float64
		if a.kind == "gains53" {
			g = dwt.BandGain(dwt.W53, levels, dwt.LL, levels)
		} else {
			g = quant.StepFor(quant.DefaultBaseDelta, levels, dwt.LL, levels)
		}
		rec.NS = time.Since(t).Nanoseconds()
		rec.OK = g > 0
		return rec, nil
	}

	var call func(ctx context.Context) (any, error)
	var src *j2kcell.Image
	if isEncodeKind(a.kind) {
		f, err := os.Open(filepath.Join(a.dir, "src.ppm"))
		if err != nil {
			return rec, err
		}
		src, err = pnm.Decode(bufio.NewReader(f))
		f.Close()
		if err != nil {
			return rec, err
		}
		call = encodeCall(src, encOptions(a.kind, a.tile))
	} else {
		stream, dk := childStream(a.kind)
		rec.LossyDec = stream != "lossless"
		data, err := os.ReadFile(filepath.Join(a.dir, stream+".j2c"))
		if err != nil {
			return rec, err
		}
		var win j2kcell.Rect
		if a.region != "" {
			if _, err := fmt.Sscanf(a.region, "%d,%d,%d,%d", &win.X0, &win.Y0, &win.W, &win.H); err != nil {
				return rec, fmt.Errorf("bad --region %q: %w", a.region, err)
			}
		}
		call = decodeCall(data, decOptions(dk, win, opWorkers))
	}

	sched0 := j2kcell.SchedulerStats()
	smp := startSampler()
	ctx, finish := traced(context.Background(), a.trace, rec.Kind)
	a0, c0 := heapAllocs(), cpuTimeNS()
	t0 := time.Now()
	out, err := call(ctx)
	rec.NS = time.Since(t0).Nanoseconds()
	rec.Alloc, rec.CPUNS = heapAllocs()-a0, cpuTimeNS()-c0
	// The peak so far, before the checks below allocate: the input, the
	// call and process start-up, not the benchmark's verification.
	rec.RSSKB = peakRSSKB()
	checkStart := time.Now()
	defer func() { rec.CheckNS = time.Since(checkStart).Nanoseconds() }()
	finish(&rec)
	smp.stop()
	rec.Goroutines = smp.hwm
	sched1 := j2kcell.SchedulerStats()
	rec.PoolClaims = sched1.PoolClaims - sched0.PoolClaims
	rec.LaneSwitches = sched1.LaneSwitches - sched0.LaneSwitches
	if err != nil {
		return rec, err
	}
	if a.corrupt {
		out = damage(out)
	}

	// Checks, outside the timed window.
	if e, ok := out.(encoded); ok {
		rec.Bytes = len(e.data)
		if e.stats != nil {
			rec.Kept, rec.Total = e.stats.KeptPasses, e.stats.TotalPasses
		}
		dec, err := j2kcell.DecodeWith(e.data, j2kcell.DecodeOptions{Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			return rec, fmt.Errorf("decoding the output: %w", err)
		}
		if a.kind == "lossy_mq" {
			rec.PSNR = psnr(src, dec)
			rec.OK = rec.PSNR >= psnrFloor
		} else {
			rec.OK = sameImage(src, dec)
		}
		return rec, nil
	}
	img, _ := out.(*j2kcell.Image)
	rec.OK = digest(img) == a.ref
	return rec, nil
}
