package codec

import (
	"context"
	"fmt"
	"time"

	"j2kcell/internal/codestream"
	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/obs"
	"j2kcell/internal/rate"
	"j2kcell/internal/simd"
	"j2kcell/internal/t1"
	"j2kcell/internal/t2"
)

// Encode compresses img into a complete JPEG2000 codestream. It is the
// one-worker instance of the stage pipeline, so EncodeParallel is
// byte-identical to it by construction.
func Encode(img *imgmodel.Image, opt Options) (*Result, error) {
	return EncodeParallel(img, opt, 1)
}

// EncodeContext is Encode bound to a context: cancellation stops the
// encode between work-queue jobs and returns ctx.Err() unwrapped.
func EncodeContext(ctx context.Context, img *imgmodel.Image, opt Options) (*Result, error) {
	return EncodeParallelContext(ctx, img, opt, 1)
}

// EncodeParallel compresses img with the whole stage pipeline — MCT,
// DWT, quantization fused into Tier-1 — spread across `workers`
// goroutines, then one sequential finish (rate control, Tier-2,
// framing). The output is byte-identical to Encode for every worker
// count. Tiled options (TileW, TileH > 0) split the image into the
// tiles of TileGrid; an untiled image is the one-tile grid.
func EncodeParallel(img *imgmodel.Image, opt Options, workers int) (*Result, error) {
	return EncodeParallelContext(context.Background(), img, opt, workers)
}

// EncodeParallelContext is EncodeParallel bound to a context: the stage
// work queues check ctx between job claims, so cancellation stops the
// encode within a bounded number of outstanding jobs (at most one per
// worker), releases all pooled buffers, and returns ctx.Err()
// unwrapped. A panic inside any stage worker is contained into a
// *FaultError instead of crossing the API.
//
// Every tile runs the same stage chain: MCTInt→DWT53→Tier1Int, or
// MCTFloat→DWT97→Tier1Float with quantization fused into the block
// jobs. A one-tile grid runs it at full width on the operation's
// pipeline; a larger grid makes the tiles the parallel unit, each
// running the chain inline on a single-worker pipeline inside its
// `tile` job, as the tiled decoder does.
func EncodeParallelContext(ctx context.Context, img *imgmodel.Image, opt Options, workers int) (res *Result, err error) {
	rec := obs.FromContext(ctx)
	tiled := opt.TileW > 0 || opt.TileH > 0
	// SLO envelope: registered before containAPIFault so it runs after
	// it (defers are LIFO) and sees the error a contained panic was
	// converted into. time.Now is only read when a recorder is
	// attached, preserving the disabled fast path.
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	defer func() {
		if rec == nil {
			return
		}
		if err != nil {
			rec.OpFailed()
			return
		}
		rec.OpDone(obs.ClassOf(false, !opt.Lossless, tiled, opt.HT), time.Since(start))
	}()
	defer containAPIFault(rec, "encode", &err)
	if err := validateImage(img); err != nil {
		return nil, err
	}
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
	}
	// Record which simd kernel set serves this encode; the counter shows
	// up in MetricsTable/expvar so a perf report can tell scalar, SSE2,
	// and AVX2 runs apart.
	if ctr, ok := obs.KernelCounter(simd.Kernel()); ok {
		rec.Add(ctr, 1)
	}
	grid := []Rect{{W: img.W, H: img.H}}
	if tiled {
		if opt.TileW <= 0 || opt.TileH <= 0 {
			return nil, fmt.Errorf("codec: both tile dimensions must be set")
		}
		grid = TileGrid(img.W, img.H, opt.TileW, opt.TileH)
	}
	// Defaults resolve once, at image size: every tile codes with the
	// image's decomposition depth, which the header records.
	opt = opt.WithDefaults(img.W, img.H)
	// Admission control (DESIGN.md §12): under the shared scheduler the
	// operation holds a slot for its whole life; a full admission queue
	// fails fast with ErrOverloaded before any pipeline work starts.
	release, aerr := admitOp(ctx, workers, rec)
	if aerr != nil {
		return nil, aerr
	}
	defer release()
	p := NewPipelineContext(ctx, workers)
	defer p.Close()
	// Whole-encode envelope span on a coordinator lane: it defines the
	// Amdahl report's total window (and pins lane 0, so worker lanes
	// stay stable across stages).
	ln := rec.Acquire()
	total := ln.Begin(obs.StageEncode, 0, 0)
	defer ln.Release()
	defer total.End()
	tiles := make([]tileCoded, len(grid))
	if len(grid) == 1 {
		tiles[0] = encodeTile(p, img, grid[0], opt)
	} else {
		p.run(obs.StageTile, 0, len(grid), func(i int) {
			r := grid[i]
			tp := NewPipelineContext(p.Context(), 1)
			tiles[i] = encodeTile(tp, img.SubImage(r.X0, r.Y0, r.W, r.H), r, opt)
			p.Fail(tp.Err())
		})
	}
	// Stage workers never leave a fault or cancellation behind silently:
	// the drain loops stop claiming, the pooled planes are already
	// returned, and the first recorded error surfaces here before the
	// sequential finish would touch possibly-missing blocks.
	if perr := p.Err(); perr != nil {
		return nil, perr
	}
	return finish(p.rec, img, opt, tiles, p.workers), nil
}

// tileCoded is one tile's Tier-1 output awaiting global rate control.
type tileCoded struct {
	rect   Rect
	jobs   []BlockJob
	blocks []*t1.Block
	rd     []rate.BlockRD // ladders + hulls, rate-constrained encodes only
}

// encodeTile runs the stage chain over one tile image on p and returns
// its coded blocks, releasing every pooled plane on the way out. On a
// fault or cancellation the blocks are incomplete and p.Err() is set.
// Rate-constrained encodes build each block's R-D ladder and convex
// hull inside its Tier-1 job, leaving only the λ search sequential
// (and even its truncation scans fan out inside finish).
func encodeTile(p *Pipeline, img *imgmodel.Image, r Rect, opt Options) tileCoded {
	t := tileCoded{rect: r}
	_, t.jobs = PlanBlocks(img.W, img.H, len(img.Comps), opt)
	if !opt.Lossless && opt.layerRates() != nil {
		t.rd = make([]rate.BlockRD, len(t.jobs))
	}
	if opt.Lossless {
		planes := p.MCTInt(img, opt)
		p.DWT53(planes, opt)
		t.blocks = p.Tier1Int(planes, t.jobs, opt.Mode(), t.rd)
		for _, pl := range planes {
			imgmodel.PutPlane(pl)
		}
	} else {
		fplanes := p.MCTFloat(img, opt)
		p.DWT97(fplanes, opt)
		t.blocks = p.Tier1Float(fplanes, t.jobs, opt, t.rd)
		for _, fp := range fplanes {
			imgmodel.PutFPlane(fp)
		}
	}
	return t
}

// Finish performs everything downstream of Tier-1 — PCRD rate
// allocation, Tier-2 packet assembly, and codestream framing — given
// the coded blocks of an untiled image. It is the one-tile call of the
// encoder's own finish, which is what makes the Cell model's output
// byte-identical to EncodeParallel by construction.
func Finish(img *imgmodel.Image, opt Options, jobs []BlockJob, blocks []*t1.Block) *Result {
	one := []tileCoded{{rect: Rect{W: img.W, H: img.H}, jobs: jobs, blocks: blocks}}
	return finish(nil, img, opt.WithDefaults(img.W, img.H), one, 1)
}

// finish turns coded tiles into the codestream: the global M_b table,
// PCRD rate allocation across every tile's blocks (with the
// header-overhead retry loop), per-tile packet assembly, and framing
// with one tile-part per tile. It records against the operation
// recorder rec (nil-safe); tiles whose ladders were not built inside
// Tier-1 get them here, and workers fans out the PCRD truncation
// scans. The result is byte-identical for every combination — hulls
// and selections are deterministic functions of the ladders.
func finish(rec *obs.Recorder, img *imgmodel.Image, opt Options, tiles []tileCoded, workers int) *Result {
	ncomp := len(img.Comps)
	mode := opt.Mode()

	// The finish stages — PCRD rate control, Tier-2 assembly, framing —
	// run on this coordinator lane; in the Amdahl report they are the
	// sequential tail the paper measures in Table 2.
	ln := rec.Acquire()
	defer ln.Release()

	// Rate control sees every tile's blocks at once; bounds[i] is where
	// tile i's blocks start.
	var jobs []BlockJob
	var blocks []*t1.Block
	var rd []rate.BlockRD
	bounds := make([]int, 0, len(tiles)+1)
	for _, t := range tiles {
		bounds = append(bounds, len(blocks))
		jobs = append(jobs, t.jobs...)
		blocks = append(blocks, t.blocks...)
		rd = append(rd, t.rd...)
	}
	bounds = append(bounds, len(blocks))
	// The header carries one M_b table, the maximum over all tiles.
	mb := ComputeMb(ncomp, 3*opt.Levels+1, jobs, blocks)

	build := func(keeps [][]int) ([]byte, int) {
		sp := ln.Begin(obs.StageT2, 0, 0)
		bodies := make([][]byte, len(tiles))
		bodyBytes := 0
		for i, t := range tiles {
			tileKeeps := make([][]int, len(keeps))
			for l := range keeps {
				tileKeeps[l] = keeps[l][bounds[i]:bounds[i+1]]
			}
			bodies[i] = AssemblePackets(t.rect.W, t.rect.H, ncomp, opt, t.jobs, t.blocks, tileKeeps, mb)
			bodyBytes += len(bodies[i])
		}
		head := &codestream.Header{
			W: img.W, H: img.H, NComp: ncomp, Depth: img.Depth,
			Levels: opt.Levels, CBW: opt.CBW, CBH: opt.CBH,
			TileW: opt.TileW, TileH: opt.TileH,
			Layers: len(keeps), Progression: int(opt.Progression),
			SOPMarkers: opt.Resilience,
			Lossless:   opt.Lossless, UseMCT: ncomp == 3,
			TermAll: mode.Base() == t1.ModeTermAll, SegSym: mode.SegSym(),
			HT: opt.HT, BaseDelta: opt.BaseDelta, Mb: mb,
		}
		sp.End()
		sp = ln.Begin(obs.StageFrame, 0, 0)
		data := codestream.EncodeTiles(head, bodies)
		sp.End()
		return data, bodyBytes
	}

	rates := opt.layerRates()
	keeps := [][]int{FullKeep(blocks)}
	constrained := !opt.Lossless && rates != nil
	if constrained {
		if len(rd) != len(blocks) {
			sp := ln.Begin(obs.StageHull, 0, 0)
			rd = BuildLadders(blocks)
			sp.End()
		}
		// The ladders (and their cached hulls) persist across the
		// overhead-retry loop, so hulls are computed at most once per
		// block per encode.
		sp := ln.Begin(obs.StageRate, 0, 0)
		keeps = allocateLayersRD(rec, rd, img, opt, rates, 0, workers)
		sp.End()
	}
	data, bodyBytes := build(keeps)
	if constrained {
		// Header sizes are only known after assembly; if the initial
		// overhead estimate was short, shave the body budget and retry.
		target := int(rates[len(rates)-1] * float64(img.W*img.H*ncomp*img.Depth/8))
		retry := int32(1)
		for extra := 16; len(data) > target && extra < target; extra *= 2 {
			sp := ln.Begin(obs.StageRate, 0, retry)
			keeps = allocateLayersRD(rec, rd, img, opt, rates, len(data)-target+extra, workers)
			sp.End()
			retry++
			data, bodyBytes = build(keeps)
		}
	}

	keep := keeps[len(keeps)-1]
	res := &Result{Data: data, Jobs: jobs, Blocks: blocks, Keep: keep, LayerKeep: keeps}
	res.Stats = buildStats(img, jobs, blocks, keep, len(data)-bodyBytes, bodyBytes)
	return res
}

// layerRates returns the cumulative per-layer rate targets, or nil when
// nothing constrains the stream.
func (o Options) layerRates() []float64 {
	if o.Lossless {
		return nil
	}
	if len(o.LayerRates) > 0 {
		return o.LayerRates
	}
	if o.Rate > 0 {
		return []float64{o.Rate}
	}
	return nil
}

// FullKeep keeps every pass of every block (lossless / no rate target).
func FullKeep(blocks []*t1.Block) []int {
	keep := make([]int, len(blocks))
	for i, b := range blocks {
		keep[i] = len(b.Passes)
	}
	return keep
}

// LadderOf builds the rate-distortion ladder of one coded block:
// cumulative segment bytes and cumulative distortion reduction after
// each pass. The hull is left uncomputed; call ComputeHull (cheap,
// block-local) to fill it — the parallel pipelines do so inside the
// Tier-1 block job itself, moving the hull sweep off the sequential
// rate-control tail.
func LadderOf(b *t1.Block) rate.BlockRD {
	var rd rate.BlockRD
	if n := len(b.Passes); n > 0 {
		rd.Rates = make([]int, 0, n)
		rd.Dists = make([]float64, 0, n)
	}
	dist := 0.0
	for _, p := range b.Passes {
		dist += p.DistDelta
		rd.Rates = append(rd.Rates, p.CumLen)
		rd.Dists = append(rd.Dists, dist)
	}
	return rd
}

// BuildLadders builds every block's R-D ladder sequentially.
func BuildLadders(blocks []*t1.Block) []rate.BlockRD {
	rd := make([]rate.BlockRD, len(blocks))
	for i, b := range blocks {
		rd[i] = LadderOf(b)
	}
	return rd
}

// allocateLayersRD runs PCRD-opt once per quality layer against the
// cumulative rate targets, returning per-layer cumulative pass counts
// (monotone per block, as layer l extends layer l-1). extraOverhead is
// the header deficit a previous assembly round measured. The ladders'
// hulls are computed on first use (possibly already cached by the
// Tier-1 jobs) and reused across layers and overhead retries; the
// per-layer truncation search fans out over `workers`. Selections are
// identical for every worker count and hull provenance.
func allocateLayersRD(rec *obs.Recorder, rd []rate.BlockRD, img *imgmodel.Image, opt Options, cumRates []float64, extraOverhead, workers int) [][]int {
	raw := img.W * img.H * len(img.Comps) * img.Depth / 8
	final := cumRates[len(cumRates)-1]
	keeps := make([][]int, len(cumRates))
	var prev []int
	for l, r := range cumRates {
		if r <= 0 { // unconstrained final layer: keep everything
			full := make([]int, len(rd))
			for i := range rd {
				full[i] = len(rd[i].Rates)
			}
			keeps[l] = full
		} else {
			overhead := 128 + 3*len(rd)*(l+1)/len(cumRates)
			if final > 0 {
				overhead += int(float64(extraOverhead) * r / final)
			} else {
				overhead += extraOverhead
			}
			budget := int(r*float64(raw)) - overhead
			keeps[l] = rate.AllocateParallel(rec, rd, budget, workers)
		}
		// Layers are embedded: each extends the previous selection.
		if prev != nil {
			for i := range keeps[l] {
				if keeps[l][i] < prev[i] {
					keeps[l][i] = prev[i]
				}
			}
		}
		prev = keeps[l]
	}
	return keeps
}

// ComputeMb returns the per-component, per-band M_b table (maximum
// coded bit planes) for a block set.
func ComputeMb(ncomp, nbands int, jobs []BlockJob, blocks []*t1.Block) [][]int {
	mb := make([][]int, ncomp)
	for c := range mb {
		mb[c] = make([]int, nbands)
		for b := range mb[c] {
			mb[c][b] = 1
		}
	}
	for i, j := range jobs {
		if blocks[i].NumBPS > mb[j.Comp][j.BandIdx] {
			mb[j.Comp][j.BandIdx] = blocks[i].NumBPS
		}
	}
	return mb
}

// AssemblePackets builds the packet body for one w×h tile in
// progression order. keeps holds one cumulative pass selection per
// quality layer; mb is the stream's M_b table (ComputeMb over every
// tile's blocks), which the header carries once for all tiles.
func AssemblePackets(w, h, ncomp int, opt Options, jobs []BlockJob, blocks []*t1.Block, keeps [][]int, mb [][]int) []byte {
	bands := dwt.Layout(w, h, opt.Levels)
	nlayers := len(keeps)
	finalKeep := keeps[nlayers-1]

	// Group jobs by (comp, band) for precinct filling.
	type key struct{ c, b int }
	byBand := map[key][]int{}
	for i, j := range jobs {
		k := key{j.Comp, j.BandIdx}
		byBand[k] = append(byBand[k], i)
	}

	// HT blocks also carry per-pass segment lengths in the packet
	// headers: the cleanup/SigProp/MagRef byte streams are separately
	// terminated by construction, exactly like TermAll MQ segments.
	style := t2.SegSingle
	if m := opt.Mode(); m.Base() == t1.ModeTermAll || m.IsHT() {
		style = t2.SegTermAll
	}

	// Persistent precinct state per (comp, band) across layers.
	precincts := map[key]*t2.Precinct{}
	for c := 0; c < ncomp; c++ {
		for bi, band := range bands {
			gw := (band.W + opt.CBW - 1) / opt.CBW
			gh := (band.H + opt.CBH - 1) / opt.CBH
			p := t2.NewPrecinct(gw, gh)
			for _, ji := range byBand[key{c, bi}] {
				j, blk := jobs[ji], blocks[ji]
				if blk.NumBPS == 0 || finalKeep[ji] == 0 {
					continue
				}
				for l := 0; l < nlayers; l++ {
					if keeps[l][ji] > 0 {
						p.FirstIncl[j.GY*gw+j.GX] = int32(l)
						break
					}
				}
				p.ZeroBPs[j.GY*gw+j.GX] = int32(mb[c][bi] - blk.NumBPS)
			}
			precincts[key{c, bi}] = p
		}
	}

	var body []byte
	pktSeq := 0
	for _, lrc := range PacketOrder(opt.Progression, nlayers, opt.Levels, ncomp) {
		l, r, c := lrc[0], lrc[1], lrc[2]
		var pkt []*t2.Precinct
		for _, bi := range ResBands(opt.Levels, r) {
			band := bands[bi]
			p := precincts[key{c, bi}]
			for i := range p.Blocks {
				p.Blocks[i] = nil
			}
			gw := (band.W + opt.CBW - 1) / opt.CBW
			for _, ji := range byBand[key{c, bi}] {
				j, blk := jobs[ji], blocks[ji]
				kPrev := 0
				if l > 0 {
					kPrev = keeps[l-1][ji]
				}
				k := keeps[l][ji]
				if k == kPrev || blk.NumBPS == 0 {
					continue
				}
				contrib := &t2.BlockContrib{
					NumPasses: k - kPrev,
					ZeroBP:    mb[c][bi] - blk.NumBPS,
				}
				off := 0
				if kPrev > 0 {
					off = blk.Passes[kPrev-1].CumLen
				}
				contrib.Data = blk.Data[off:blk.Passes[k-1].CumLen]
				if style == t2.SegTermAll {
					for _, ps := range blk.Passes[kPrev:k] {
						contrib.Segments = append(contrib.Segments, t2.Segment{Passes: 1, Len: ps.SegLen})
					}
				} else {
					contrib.Segments = []t2.Segment{{Passes: k - kPrev, Len: len(contrib.Data)}}
				}
				p.Blocks[j.GY*gw+j.GX] = contrib
			}
			pkt = append(pkt, p)
		}
		if opt.Resilience {
			body = appendSOP(body, pktSeq)
			pktSeq++
		}
		body = append(body, t2.EncodePacketEPH(pkt, l, opt.Resilience)...)
	}
	return body
}

// appendSOP emits the 6-byte start-of-packet marker segment.
func appendSOP(body []byte, seq int) []byte {
	return append(body, 0xFF, 0x91, 0x00, 0x04, byte(seq>>8), byte(seq))
}

func buildStats(img *imgmodel.Image, jobs []BlockJob, blocks []*t1.Block, keep []int, headerBytes, bodyBytes int) Stats {
	s := Stats{
		W: img.W, H: img.H, NComp: len(img.Comps),
		Samples:     img.W * img.H * len(img.Comps),
		HeaderBytes: headerBytes,
		BodyBytes:   bodyBytes,
	}
	for i, b := range blocks {
		if b.NumBPS > 0 {
			s.Blocks++
		}
		s.T1Scanned += int64(b.TotalScanned())
		s.T1Coded += int64(b.TotalCoded())
		s.TotalPasses += len(b.Passes)
		s.KeptPasses += keep[i]
	}
	return s
}
