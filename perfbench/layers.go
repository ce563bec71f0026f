package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os/exec"
	"time"

	"j2kcell"
	"j2kcell/internal/cell"
	"j2kcell/internal/codestream"
	"j2kcell/internal/dwt"
	"j2kcell/internal/mct"
	"j2kcell/internal/quant"
	"j2kcell/internal/t1"
)

// levels is the decomposition depth every workload codes with (the
// codec default; all workload edges allow it).
const levels = 5

// timeMedian calls fn (after prep, untimed) until budget seconds have
// passed and at least 3 times, and returns the median seconds per call.
func timeMedian(budget float64, prep func(), fn func()) float64 {
	var xs []float64
	start := time.Now()
	for len(xs) < 3 || elapsed(start) < budget {
		if prep != nil {
			prep()
		}
		t := time.Now()
		fn()
		xs = append(xs, elapsed(t))
	}
	return median(xs)
}

// layerBench times the leaf layers on component planes of img: the
// forward and inverse DWT and MCT, quantization, the warm step-size
// lookup, Tier-1 block coding, and codestream parsing of streams. The
// lossless transforms must invert exactly and every block must decode
// to its input; a failure makes the run incorrect.
func layerBench(cfg config, rep *report, img *j2kcell.Image, streams [][]byte) error {
	w, h := img.W, img.H
	mpix := float64(w*h) / 1e6
	budget := cfg.layerSecs
	src := img.Comps[0]
	stride := src.Stride

	// Integer plane (level-shifted) and its float copy.
	ip := make([]int32, len(src.Data))
	fp := make([]float32, len(src.Data))
	off := int32(1) << (img.Depth - 1)
	load := func() {
		for i, v := range src.Data {
			ip[i] = v - off
			fp[i] = float32(v - off)
		}
	}
	load()
	orig := append([]int32(nil), ip...)

	// dwt
	f53 := timeMedian(budget, load, func() { dwt.Forward53(ip, w, h, stride, levels) })
	f97 := timeMedian(budget, load, func() { dwt.Forward97(fp, w, h, stride, levels) })
	rep.set("dwt.fwd_ms_per_mpix", 1e3*(f53+f97)/2/mpix, "ms/Mpx", 2)
	load()
	dwt.Forward53(ip, w, h, stride, levels)
	dwt.Forward97(fp, w, h, stride, levels)
	c53 := append([]int32(nil), ip...)
	c97 := append([]float32(nil), fp...)
	reload := func() { copy(ip, c53); copy(fp, c97) }
	i53 := timeMedian(budget, reload, func() { dwt.InverseLevels53(ip, w, h, stride, levels, 0) })
	i97 := timeMedian(budget, reload, func() { dwt.InverseLevels97(fp, w, h, stride, levels, 0) })
	rep.set("dwt.inv_ms_per_mpix", 1e3*(i53+i97)/2/mpix, "ms/Mpx", 2)
	reload()
	dwt.InverseLevels53(ip, w, h, stride, levels, 0)
	if !equalLive(ip, orig, w, h, stride) {
		rep.count(1, 1)
		rep.note("dwt: 5/3 inverse does not restore its input")
	}

	// quant: the 9/7 coefficients quantized block-wise, and the warm
	// step-size lookup every lossy job makes.
	q := make([]int32, len(c97))
	delta := float32(quant.StepFor(quant.DefaultBaseDelta, levels, dwt.HL, 1))
	qt := timeMedian(budget, nil, func() { quant.QuantizeBlock(q, stride, c97, stride, w, h, delta) })
	rep.set("quant.quantize_ms_per_mpix", 1e3*qt/mpix, "ms/Mpx", 1)
	const lookups = 4096
	var sink float64
	st := timeMedian(budget, nil, func() {
		for i := 0; i < lookups; i++ {
			sink += quant.StepFor(quant.DefaultBaseDelta, levels, dwt.Orient(1+i%3), 1+i%levels)
		}
	})
	if sink <= 0 {
		rep.note("quant: non-positive step sizes")
	}
	rep.set("quant.stepfor_warm_ns", 1e9*st/lookups, "ns", lookups)

	// mct: merged level shift + colour transform over all three planes.
	if len(img.Comps) >= 3 {
		mctBench(rep, img, budget, mpix)
	}

	// t1: 64×64 blocks cut from the 5/3 transform of the plane.
	t1Bench(rep, c53, w, h, stride, budget)

	// codestream: marker parsing of the streams the run produced.
	for _, s := range streams {
		if _, _, err := codestream.DecodeTilesLimits(s, codestream.DefaultLimits()); err != nil {
			rep.count(1, 1)
			rep.note("codestream: %v", err)
		}
	}
	pt := timeMedian(budget, nil, func() {
		for _, s := range streams {
			_, _, _ = codestream.DecodeTilesLimits(s, codestream.DefaultLimits()) // checked above
		}
	})
	rep.set("codestream.parse_ms_per_op", 1e3*pt/float64(max(len(streams), 1)), "ms", len(streams))
	return nil
}

// equalLive compares the live w×h samples of two strided planes.
func equalLive(a, b []int32, w, h, stride int) bool {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if a[y*stride+x] != b[y*stride+x] {
				return false
			}
		}
	}
	return true
}

// blockEqual compares a packed bw×bh block with the same block of a
// strided plane.
func blockEqual(blk, plane []int32, bw, bh, stride int) bool {
	for y := 0; y < bh; y++ {
		for x := 0; x < bw; x++ {
			if blk[y*bw+x] != plane[y*stride+x] {
				return false
			}
		}
	}
	return true
}

// mctBench times the reversible and irreversible colour transforms,
// forward and inverse, and checks that the reversible one inverts.
func mctBench(rep *report, img *j2kcell.Image, budget, mpix float64) {
	w, h, d := img.W, img.H, img.Depth
	stride := img.Comps[0].Stride
	n := len(img.Comps[0].Data)
	r, g, b := make([]int32, n), make([]int32, n), make([]int32, n)
	load := func() { copy(r, img.Comps[0].Data); copy(g, img.Comps[1].Data); copy(b, img.Comps[2].Data) }
	y, cb, cr := make([]float32, n), make([]float32, n), make([]float32, n)
	rct := timeMedian(budget, load, func() { mct.ForwardRCTRows(r, g, b, w, stride, 0, h, d) })
	ict := timeMedian(budget, load, func() { mct.ForwardICTRows(r, g, b, y, cb, cr, w, stride, stride, 0, h, d) })
	rep.set("mct.fwd_ms_per_mpix", 1e3*(rct+ict)/2/mpix, "ms/Mpx", 2)

	load()
	mct.ForwardRCTRows(r, g, b, w, stride, 0, h, d)
	fr, fg, fb := append([]int32(nil), r...), append([]int32(nil), g...), append([]int32(nil), b...)
	reload := func() { copy(r, fr); copy(g, fg); copy(b, fb) }
	irct := timeMedian(budget, reload, func() { mct.InverseRCTRows(r, g, b, w, stride, 0, h, d) })
	ok := equalLive(r, img.Comps[0].Data, w, h, stride) && equalLive(g, img.Comps[1].Data, w, h, stride) &&
		equalLive(b, img.Comps[2].Data, w, h, stride)
	if !ok {
		rep.count(1, 1)
		rep.note("mct: inverse RCT does not restore its input")
	}
	load()
	mct.ForwardICTRows(r, g, b, y, cb, cr, w, stride, stride, 0, h, d)
	iict := timeMedian(budget, nil, func() { mct.InverseICTRows(y, cb, cr, r, g, b, w, stride, stride, 0, h, d) })
	rep.set("mct.inv_ms_per_mpix", 1e3*(irct+iict)/2/mpix, "ms/Mpx", 2)
}

// t1Bench codes every 64×64 block of a 5/3-transformed plane with the
// MQ and HT coders and decodes it back.
func t1Bench(rep *report, coef []int32, w, h, stride int, budget float64) {
	type blk struct {
		off, bw, bh int
		o           dwt.Orient
	}
	var blocks []blk
	for _, b := range dwt.Layout(w, h, levels) {
		for y := 0; y < b.H; y += 64 {
			for x := 0; x < b.W; x += 64 {
				blocks = append(blocks, blk{(b.Y0+y)*stride + b.X0 + x, min(64, b.W-x), min(64, b.H-y), b.Orient})
			}
		}
	}
	for _, c := range []struct {
		name string
		mode t1.Mode
	}{{"mq", t1.ModeSingle}, {"ht", t1.ModeHT}} {
		coded := make([]*t1.Block, len(blocks))
		enc := timeMedian(budget, nil, func() {
			for i, b := range blocks {
				coded[i] = t1.Encode(coef[b.off:], b.bw, b.bh, stride, b.o, c.mode, 1)
			}
		})
		segs := make([][]int, len(blocks))
		outs := make([][]int32, len(blocks))
		errs := make([]error, len(blocks))
		for i, cb := range coded {
			for _, p := range cb.Passes {
				segs[i] = append(segs[i], p.SegLen)
			}
			outs[i] = make([]int32, blocks[i].bw*blocks[i].bh)
		}
		dec := timeMedian(budget, nil, func() {
			for i, b := range blocks {
				cb := coded[i]
				errs[i] = t1.Decode(outs[i], b.bw, b.bh, b.bw, b.o, c.mode, cb.NumBPS, len(cb.Passes), cb.Data, segs[i])
			}
		})
		bad := 0
		for i, b := range blocks {
			if errs[i] != nil || !blockEqual(outs[i], coef[b.off:], b.bw, b.bh, stride) {
				bad++
			}
		}
		if bad > 0 {
			rep.count(len(blocks), bad)
			rep.note("t1 %s: %d of %d blocks did not decode to their input", c.name, bad, len(blocks))
		}
		rep.set("t1.enc_us_per_block."+c.name, 1e6*enc/float64(len(blocks)), "us", len(blocks))
		rep.set("t1.dec_us_per_block."+c.name, 1e6*dec/float64(len(blocks)), "us", len(blocks))
	}
}

// gainsFirst times the first synthesis-gain lookup per filter, each in
// a fresh child process (median of three): the one-time calibration a
// cold operation pays. 9/7 goes through quant.StepFor, as lossy coding
// does. It returns the 9/7 figure in nanoseconds.
func gainsFirst(cfg config, rep *report) (float64, error) {
	var ns97 float64
	for _, f := range []string{"53", "97"} {
		var ms []float64
		for i := 0; i < 3; i++ {
			r, _, err := spawnChild(cfg, []string{"--child", "gains" + f})
			if err != nil {
				return 0, err
			}
			if !r.OK {
				return 0, fmt.Errorf("gains%s child: %s", f, r.Err)
			}
			ms = append(ms, float64(r.NS)/1e6)
		}
		rep.set("dwt.gains_first_ms."+f, median(ms), "ms", len(ms))
		ns97 = 1e6 * median(ms)
	}
	return ns97, nil
}

// coreRows runs the paper's Figure 4/5 configurations on the simulated
// Cell/B.E. over the dial at cfg.coreEdge (seed 42). The rows are
// deterministic: a change means the modeled algorithm changed. The
// simulated codestream must equal the native encoder's.
func coreRows(cfg config, rep *report) error {
	img := j2kcell.TestImage(cfg.coreEdge, cfg.coreEdge, 42)
	sim := func(nSPE int, qs20 bool, opt j2kcell.Options) (*j2kcell.SimResult, error) {
		c := j2kcell.DefaultSimConfig(nSPE, opt)
		if qs20 {
			c.Cell.Chips, c.Cell.PPEThreads, c.PPET1 = 2, 2, true
		}
		res, err := j2kcell.Simulate(img, c)
		if err != nil {
			return nil, err
		}
		want, _, err := j2kcell.Encode(img, opt)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(res.Data, want) {
			rep.count(1, 1)
			rep.note("core: simulated codestream differs from the native encoder's")
		}
		return res, nil
	}
	lossless, lossy := j2kcell.Options{Lossless: true}, j2kcell.Options{Rate: 0.1}
	one, err := sim(1, false, lossless)
	if err != nil {
		return err
	}
	f4, err := sim(16, true, lossless)
	if err != nil {
		return err
	}
	f5, err := sim(16, true, lossy)
	if err != nil {
		return err
	}
	rep.set("core.model_ms.fig4_1spe", 1e3*cell.Seconds(one.Cycles), "ms", 1)
	rep.set("core.model_ms.fig4_16spe_2ppe", 1e3*cell.Seconds(f4.Cycles), "ms", 1)
	rep.set("core.model_ms.fig5_16spe_2ppe", 1e3*cell.Seconds(f5.Cycles), "ms", 1)
	rep.set("core.dma_mb.fig4_16spe_2ppe", float64(f4.DMABytes)/1e6, "MB", 1)
	rep.set("core.rate_share.fig5_16spe_2ppe", float64(f5.StageCycles("ratecontrol"))/float64(f5.Cycles), "frac", 1)
	return nil
}

// childTimeout bounds one child process; a cold operation takes about a
// second.
const childTimeout = 60 * time.Second

// spawnChild runs this program once with args and returns the record it
// printed last, and its peak RSS in KiB.
func spawnChild(cfg config, args []string) (opRec, int64, error) {
	var out, errb bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, cfg.exe, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	runErr := cmd.Run()
	var rss int64
	if cmd.ProcessState != nil {
		rss = maxRSSKB(cmd.ProcessState)
	}
	var r opRec
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		if runErr != nil {
			return opRec{Err: fmt.Sprintf("child %v: %v: %s", args, runErr, bytes.TrimSpace(errb.Bytes()))}, rss, nil
		}
		return opRec{}, rss, fmt.Errorf("child %v: unreadable result: %v", args, err)
	}
	if runErr != nil {
		r.OK = false
		r.Err = fmt.Sprintf("%s (exit: %v)", r.Err, runErr)
	}
	return r, rss, nil
}
