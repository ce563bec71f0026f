package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"time"

	"j2kcell"
	"j2kcell/internal/workload"
)

// warmSet is a set-up warm workload.
type warmSet struct {
	deck []task
	// rep is the workload's representative source image: the layer
	// microbenchmarks and the per-kind probes run on it.
	rep *j2kcell.Image
	// verify runs the output checks that belong after the timed window
	// and returns, per deck index, whether that task's outputs are right.
	verify func() []bool
	bpp    float64 // lossless_bpp
	psnr   float64 // lossy_psnr_db
	// setupFailed counts reference checks that failed during set-up.
	setupFailed int
}

// dialImage renders one seeded 3-component 8-bit dial; the grain is
// seeded within a narrow band so compressibility stays comparable
// across seeds.
func dialImage(edge int, rng *rand.Rand) *j2kcell.Image {
	return workload.Dial(edge, edge, rng.Uint32(), 4.9+0.2*rng.Float64())
}

// encodeMix is the per-image mode mix of encode_warm. Lossless MQ comes
// twice so that the deck has an odd number of entries: the median (and
// p90) of whole decks then falls in the middle of one entry's samples
// instead of between two entries' clusters.
var encodeMix = []string{"lossless_mq", "lossy_mq", "lossless_ht", "lossless_tiled", "lossless_mq"}

// buildEncodeWarm generates the encode_warm image pool and its deck:
// every pool image under every encode kind. Each task's first output
// (from the warm-up pass) is its reference; later outputs must equal it
// byte for byte, and the reference itself is decoded and checked after
// the timed window.
func buildEncodeWarm(cfg config) *warmSet {
	rng := rand.New(rand.NewPCG(cfg.seed, 0xe1c0de))
	ws := &warmSet{}
	var imgs []*j2kcell.Image
	for _, e := range cfg.encEdges {
		img := dialImage(e, rng)
		imgs = append(imgs, img)
		if ws.rep == nil || e > ws.rep.W {
			ws.rep = img
		}
	}
	type ref struct {
		img  *j2kcell.Image
		kind string
		out  []byte
	}
	var refs []*ref
	for _, img := range imgs {
		for _, k := range encodeMix {
			r := &ref{img: img, kind: k}
			refs = append(refs, r)
			ws.deck = append(ws.deck, task{
				kind: k,
				call: encodeCall(img, encOptions(k, cfg.tile)),
				check: func(out any) bool {
					e, ok := out.(encoded)
					if !ok {
						return false
					}
					if r.out == nil { // warm-up pass, single goroutine
						r.out = e.data
						return true
					}
					return bytes.Equal(e.data, r.out)
				},
			})
		}
	}
	ws.verify = func() []bool {
		good := make([]bool, len(refs))
		var bits, px, psnrSum float64
		var nLossy int
		for i, r := range refs {
			dec, err := j2kcell.DecodeWithContext(context.Background(), r.out, j2kcell.DecodeOptions{Workers: opWorkers})
			if err != nil {
				continue
			}
			if r.kind == "lossy_mq" {
				p := psnr(r.img, dec)
				good[i] = p >= psnrFloor
				psnrSum += p
				nLossy++
			} else {
				good[i] = sameImage(r.img, dec)
				bits += 8 * float64(len(r.out))
				px += float64(r.img.W * r.img.H)
			}
		}
		ws.bpp = bits / px
		ws.psnr = psnrSum / float64(nLossy)
		return good
	}
	return ws
}

// buildDecodeWarm generates the decode_warm source, pre-encodes its four
// streams and computes every deck entry's reference digest with a
// single-worker decode (the codec guarantees pixel identity across
// worker counts). Lossless full and window references are the source
// itself, and the single-worker decode must reproduce them.
func buildDecodeWarm(cfg config) (*warmSet, error) {
	rng := rand.New(rand.NewPCG(cfg.seed, 0xdec0de))
	src := dialImage(cfg.decEdge, rng)
	ws := &warmSet{rep: src}
	type stream struct {
		name     string
		opt      j2kcell.Options
		lossless bool
		layered  bool
	}
	streams := []stream{
		{"lossless_mq", encOptions("lossless_mq", cfg.tile), true, false},
		{"lossy_layered_mq", j2kcell.Options{LayerRates: layeredRates}, false, true},
		{"lossless_ht", encOptions("lossless_ht", cfg.tile), true, false},
		{"lossless_tiled", encOptions("lossless_tiled", cfg.tile), true, false},
	}
	var refs []string
	var bits float64
	var nLossless int
	for _, s := range streams {
		data, _, err := j2kcell.EncodeParallel(src, s.opt, opWorkers)
		if err != nil {
			return nil, fmt.Errorf("decode_warm set-up: encode %s: %w", s.name, err)
		}
		if s.lossless {
			bits += 8 * float64(len(data))
			nLossless++
		}
		kinds := []string{"full", "thumb", "region", "region"}
		if s.layered {
			kinds = append(kinds, "layer1")
		}
		for _, k := range kinds {
			win := quarterWindow(src.W, src.H, rng.Uint64(), rng.Uint64())
			ref, err := j2kcell.DecodeWithContext(context.Background(), data, decOptions(k, win, 1))
			if err != nil {
				return nil, fmt.Errorf("decode_warm set-up: reference %s/%s: %w", s.name, k, err)
			}
			want := digest(ref)
			switch {
			case s.lossless && k == "full":
				want = digest(src)
			case s.lossless && k == "region":
				want = digest(src.SubImage(win.X0, win.Y0, win.W, win.H))
			}
			if digest(ref) != want {
				ws.setupFailed++
			}
			if s.layered && k == "full" {
				ws.psnr = psnr(src, ref)
			}
			refs = append(refs, want)
			ws.deck = append(ws.deck, task{
				kind:  k,
				call:  decodeCall(data, decOptions(k, win, opWorkers)),
				check: func(out any) bool { img, _ := out.(*j2kcell.Image); return digest(img) == want },
			})
		}
	}
	ws.bpp = bits / float64(nLossless*src.W*src.H)
	ws.verify = func() []bool {
		good := make([]bool, len(refs))
		for i := range good {
			good[i] = true
		}
		return good
	}
	return ws, nil
}

// setUpWarm builds the workload repeatedly (setup_s is the median) and
// keeps the last build.
func setUpWarm(cfg config) (ws *warmSet, times []float64, err error) {
	times, err = repeatSetup(cfg, func() (err error) {
		if cfg.workload == "encode_warm" {
			ws = buildEncodeWarm(cfg)
			return nil
		}
		ws, err = buildDecodeWarm(cfg)
		return err
	})
	return ws, times, err
}

// runWarm runs encode_warm or decode_warm.
func runWarm(cfg config) (*report, error) {
	ws, setupTimes, err := setUpWarm(cfg)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if ws.setupFailed > 0 {
		rep.count(ws.setupFailed, ws.setupFailed)
		rep.note("%d set-up reference checks failed", ws.setupFailed)
	}
	// Warm-up: every task once, in order, on one goroutine. Pools fill,
	// synthesis gains calibrate, the scheduler spins up, and encode
	// tasks record their reference outputs.
	for _, t := range ws.deck {
		runTask(t, false, false)
	}
	runtime.GC()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		res := closedLoop(ws.deck, cfg.seed, dur, false, cfg.corrupt)
		good := ws.verify()
		failed := countFailed(res.recs, good)
		rep.count(len(res.recs), failed)
		e2eWarm(rep, res, failed, setupTimes, ws)
		return rep, nil
	}
	// Traced run: an untraced window (the trace-overhead baseline), then
	// the traced window the per-layer numbers come from.
	base := closedLoop(ws.deck, cfg.seed, dur/3, false, cfg.corrupt)
	tr := closedLoop(ws.deck, cfg.seed, dur-dur/3, true, cfg.corrupt)
	good := ws.verify()
	rep.count(len(base.recs), countFailed(base.recs, good))
	rep.count(len(tr.recs), countFailed(tr.recs, good))
	probes, streams, err := probeKinds(cfg, ws.rep)
	if err != nil {
		return nil, err
	}
	lm := layerInputs{
		window:     tr.recs,
		probes:     probes,
		baseP50:    p50ms(base.recs),
		poolClaims: float64(tr.sched.PoolClaims) / float64(len(tr.recs)),
		switches:   float64(tr.sched.LaneSwitches) / float64(len(tr.recs)),
		goHWM:      tr.goHWM,
		img:        ws.rep,
		streams:    streams,
	}
	if err := perLayer(cfg, rep, lm); err != nil {
		return nil, err
	}
	return rep, nil
}

// countFailed counts operations that errored, failed their inline
// check, or whose deck entry failed the post-window check.
func countFailed(recs []opRec, good []bool) int {
	n := 0
	for _, r := range recs {
		if !r.OK || (r.task >= 0 && r.task < len(good) && !good[r.task]) {
			n++
		}
	}
	return n
}

// e2eWarm fills the end-to-end metrics of a warm window.
func e2eWarm(rep *report, res loopResult, failed int, setupTimes []float64, ws *warmSet) {
	n := len(res.recs)
	ms := opMillis(res.recs)
	// The clients check each output inside the window. That is the
	// benchmark's work: each client's loop is shorter by its own check
	// time, and the process CPU time by the checks' thread CPU time.
	var checkNS, checkCPU float64
	for _, r := range res.recs {
		checkNS += float64(r.CheckNS)
		checkCPU += float64(r.CheckCPU)
	}
	wall := res.wall.Seconds() - checkNS/1e9/clients
	rep.set("setup_s", median(setupTimes), "s", len(setupTimes))
	rep.set("op_ms_p50", quantile(ms, 0.5), "ms", n)
	rep.set("op_ms_p90", quantile(ms, 0.9), "ms", n)
	rep.set("ops_per_s", float64(n)/wall, "1/s", n)
	rep.set("cpu_ms_per_op", (float64(res.cpuNS)-checkCPU)/1e6/float64(n), "ms", n)
	rep.set("alloc_mb_per_op", float64(res.alloc)/1e6/float64(n), "MB", n)
	rep.set("peak_rss_mb", quantile(res.rssMB, 0.9), "MB", len(res.rssMB))
	rep.set("ops_ok_frac", float64(n-failed)/float64(n), "frac", n)
	rep.set("lossless_bpp", ws.bpp, "bit/px", 1)
	rep.set("lossy_psnr_db", ws.psnr, "dB", 1)
	rep.note("ops_failed_frac=%.6g (%d of %d); %d whole decks of %d", float64(failed)/float64(n), failed, n, res.deckRuns, len(ws.deck))
	rep.note("op_ms p50 by kind: %s", kindMedians(res.recs))
	rep.note("output checks: %.2f%% of client time and %.2f%% of process CPU, left out of ops_per_s and cpu_ms_per_op",
		100*checkNS/1e9/clients/res.wall.Seconds(), 100*checkCPU/float64(res.cpuNS))
}

func opMillis(recs []opRec) []float64 {
	ms := make([]float64, len(recs))
	for i, r := range recs {
		ms[i] = float64(r.NS) / 1e6
	}
	return ms
}

func p50ms(recs []opRec) float64 { return median(opMillis(recs)) }

// kindMedians renders the median latency of each kind present in recs.
func kindMedians(recs []opRec) string {
	by := map[string][]float64{}
	var order []string
	for _, r := range recs {
		if _, ok := by[r.Kind]; !ok {
			order = append(order, r.Kind)
		}
		by[r.Kind] = append(by[r.Kind], float64(r.NS)/1e6)
	}
	var b strings.Builder
	for _, k := range order {
		fmt.Fprintf(&b, "%s=%.1f(n=%d) ", k, median(by[k]), len(by[k]))
	}
	return strings.TrimSpace(b.String())
}
