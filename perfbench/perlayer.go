package main

import (
	"bytes"
	"fmt"

	"j2kcell"
)

// layerInputs is what a traced run hands to the per-layer report.
type layerInputs struct {
	// window holds the traced operations of the workload's own mix.
	window []opRec
	// probes holds sequential per-kind operations on the representative
	// image: untraced ones carry Alloc, traced ones carry spans. They
	// stand in for kinds and stages the workload's mix lacks.
	probes []opRec
	// overhead holds the traced operations comparable with baseP50, the
	// untraced median of the same mix.
	overhead   []opRec
	baseP50    float64
	poolClaims float64 // shared-scheduler pool claims per op
	switches   float64 // shared-scheduler lane switches per op
	goHWM      int
	img        *j2kcell.Image // representative source image
	streams    [][]byte       // codestreams the parse timing reads
}

// perLayer fills the per-layer metrics of a traced run.
func perLayer(cfg config, rep *report, in layerInputs) error {
	if in.overhead == nil {
		in.overhead = in.window
	}
	var traced []opRec
	for _, r := range in.window {
		if r.Traced {
			traced = append(traced, r)
		}
	}
	n := len(traced)
	if n == 0 {
		return fmt.Errorf("traced window recorded no operations")
	}
	probeFailed := 0
	for _, r := range in.probes {
		if !r.OK {
			probeFailed++
		}
	}
	rep.count(len(in.probes), probeFailed)

	// codec: per-kind latency and allocation.
	for _, k := range append(append([]string(nil), encKinds...), decKinds...) {
		ms, src := kindSamples(in.window, in.probes, k, func(r opRec) (float64, bool) { return float64(r.NS) / 1e6, r.OK && r.Traced })
		rep.set("codec.op_ms."+k, median(ms), "ms", len(ms))
		if src != "" {
			rep.note("codec.op_ms.%s from %s", k, src)
		}
		mb, _ := kindSamples(in.window, in.probes, k, func(r opRec) (float64, bool) { return float64(r.Alloc) / 1e6, r.OK && r.Alloc > 0 })
		rep.set("codec.alloc_mb."+k, mean(mb), "MB", len(mb))
	}

	// codec: stage self times, coverage, concurrency.
	var sumNS, covered, window, serial, busy float64
	self := map[string]float64{}
	for _, r := range traced {
		sumNS += float64(r.NS)
		covered += float64(r.Covered)
		window += float64(r.Window)
		serial += float64(r.Serial)
		busy += float64(r.Busy)
		for g, v := range r.Self {
			self[g] += float64(v)
		}
	}
	for _, g := range stageGroups {
		rep.set("codec.self_ms."+g, self[g]/1e6/float64(n), "ms", n)
	}
	// A cold lossy decode calibrates the 9/7 gains lazily. Inside the
	// dequantization stage that time is spanned (as deq); on the reduced
	// (thumbnail) path it runs under no span at all. There, the remainder
	// up to the measured first-lookup cost is charged to calibration.
	gains97, err := gainsFirst(cfg, rep)
	if err != nil {
		return err
	}
	var unspanned float64
	for _, r := range traced {
		if r.LossyDec && float64(r.Self["deq"]) < gains97/2 {
			unspanned += min(gains97, float64(r.NS-r.Covered))
		}
	}
	rep.set("codec.span_frac", covered/sumNS, "frac", n)
	rep.set("codec.calib_unspanned_ms", unspanned/1e6/float64(n), "ms", n)
	rep.set("codec.attributed_frac", (covered+unspanned)/sumNS, "frac", n)
	rep.set("codec.unattributed_ms", (sumNS-covered-unspanned)/1e6/float64(n), "ms", n)
	rep.set("codec.serial_frac", serial/window, "frac", n)
	rep.set("codec.parallelism", busy/window, "x", n)
	rep.set("codec.sched_pool_claims_per_op", in.poolClaims, "count", n)
	rep.set("codec.sched_lane_switches_per_op", in.switches, "count", n)
	rep.set("codec.goroutines_hwm", float64(in.goHWM), "count", n)

	// Counters the codec records per operation.
	ctr := func(name string) float64 {
		var s float64
		for _, r := range traced {
			s += float64(r.Counters[name])
		}
		return s / float64(n)
	}
	rep.set("dwt.bytes_moved_per_op", ctr("dwt_bytes_moved"), "B", n)
	rep.set("t1.coded_decisions_per_op", ctr("t1_coded"), "count", n)
	rep.set("mq.renorm_chunks_per_op", ctr("mq_renorm_chunks"), "count", n)
	var hit, miss float64
	for _, p := range []string{"plane", "scratch", "coder"} {
		hit += ctr("pool_" + p + "_hit")
		miss += ctr("pool_" + p + "_miss")
	}
	rep.set("imgmodel.pool_hit_frac", hit/(hit+miss), "frac", n)

	// rate and t2: lossy encodes and all encodes of the mix, or of the
	// probes when the mix has none.
	lossy := tracedOf(in.window, in.probes, func(r opRec) bool { return r.Kind == "lossy_mq" })
	var kept, total, rateNS, probes float64
	for _, r := range lossy {
		kept += float64(r.Kept)
		total += float64(r.Total)
		rateNS += float64(r.Self["rate"])
		probes += float64(r.Counters["rate_probes"])
	}
	rep.set("t1.pass_keep_frac", kept/total, "frac", len(lossy))
	rep.set("rate.self_ms", rateNS/1e6/float64(len(lossy)), "ms", len(lossy))
	rep.set("rate.probes_per_op", probes/float64(len(lossy)), "count", len(lossy))
	enc := tracedOf(in.window, in.probes, func(r opRec) bool { return isEncodeKind(r.Kind) })
	var t2NS float64
	for _, r := range enc {
		t2NS += float64(r.Self["t2"])
	}
	rep.set("t2.self_ms", t2NS/1e6/float64(len(enc)), "ms", len(enc))

	// obs: the recorder's cost on the same mix.
	var ovh []opRec
	for _, r := range in.overhead {
		if r.Traced {
			ovh = append(ovh, r)
		}
	}
	rep.set("obs.trace_overhead_frac", p50ms(ovh)/in.baseP50-1, "frac", len(ovh))

	// Leaf layers, measured directly.
	if err := layerBench(cfg, rep, in.img, in.streams); err != nil {
		return err
	}
	return coreRows(cfg, rep)
}

// kindSamples collects a per-kind value from the window, falling back to
// the probes when the window has no usable sample of that kind. src
// names the fallback ("" when the window served).
func kindSamples(window, probes []opRec, kind string, val func(opRec) (float64, bool)) ([]float64, string) {
	pick := func(recs []opRec) []float64 {
		var xs []float64
		for _, r := range recs {
			if r.Kind != kind {
				continue
			}
			if v, ok := val(r); ok {
				xs = append(xs, v)
			}
		}
		return xs
	}
	if xs := pick(window); len(xs) > 0 {
		return xs, ""
	}
	return pick(probes), "probes"
}

// tracedOf returns the traced window operations matching keep, or the
// traced probes matching it when the window has none.
func tracedOf(window, probes []opRec, keep func(opRec) bool) []opRec {
	pick := func(recs []opRec) []opRec {
		var out []opRec
		for _, r := range recs {
			if r.Traced && r.OK && keep(r) {
				out = append(out, r)
			}
		}
		return out
	}
	if out := pick(window); len(out) > 0 {
		return out
	}
	return pick(probes)
}

// probeKinds runs every operation kind sequentially on img: one warm-up
// call, three untraced calls (latency and allocation) and two traced
// calls. Decode kinds read a 3-layer lossy stream of img. Every output
// must match the kind's first output (encodes) or its single-worker
// reference (decodes); a record that does not is not OK. It returns the
// records and the codestreams it produced.
func probeKinds(cfg config, img *j2kcell.Image) ([]opRec, [][]byte, error) {
	layered, _, err := j2kcell.EncodeParallel(img, j2kcell.Options{LayerRates: layeredRates}, opWorkers)
	if err != nil {
		return nil, nil, fmt.Errorf("probe set-up: %w", err)
	}
	streams := [][]byte{layered}
	win := quarterWindow(img.W, img.H, uint64(img.W*3/8), uint64(img.H*3/8))
	var recs []opRec
	for _, k := range append(append([]string(nil), encKinds...), decKinds...) {
		var t task
		if isEncodeKind(k) {
			var first []byte
			t = task{kind: k, call: encodeCall(img, encOptions(k, cfg.tile)), check: func(out any) bool {
				e, _ := out.(encoded)
				if first == nil {
					first = e.data
					streams = append(streams, e.data)
					return e.data != nil
				}
				return bytes.Equal(e.data, first)
			}}
		} else {
			ref, err := j2kcell.DecodeWith(layered, decOptions(k, win, 1))
			if err != nil {
				return nil, nil, fmt.Errorf("probe reference %s: %w", k, err)
			}
			want := digest(ref)
			t = task{kind: k, call: decodeCall(layered, decOptions(k, win, opWorkers)), check: func(out any) bool {
				im, _ := out.(*j2kcell.Image)
				return digest(im) == want
			}}
		}
		runTask(t, false, false) // warm-up
		for i := 0; i < 3; i++ {
			a0 := heapAllocs()
			r := runTask(t, false, false)
			r.Alloc = heapAllocs() - a0
			recs = append(recs, r)
		}
		for i := 0; i < 2; i++ {
			recs = append(recs, runTask(t, true, false))
		}
	}
	return recs, streams, nil
}
