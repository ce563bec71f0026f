package codec

import (
	"j2kcell/internal/codestream"
	"j2kcell/internal/decomp"
	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/mct"
	"j2kcell/internal/obs"
	"j2kcell/internal/quant"
	"j2kcell/internal/t1"
)

// Decode-side pipeline stages. The inverse chain mirrors the encoder's
// stage decomposition through the same atomic work queue:
//
//	plane zeroing              — row stripes (pooled planes only; planes
//	                             that become the output are fresh)
//	Tier-1 block decode        — dynamically-sized partitions of the
//	                             block list (see partitionDecodeTasks)
//	dequantization             — one job per (component × kept band)
//	multi-level inverse DWT    — horizontal: row stripes; vertical:
//	                             cache-line column groups; barrier per
//	                             phase and per level, levels walked
//	                             finest-last (the reverse of DWT53/97)
//	inverse MCT + clamp        — row stripes of the requested window,
//	                             written into the output; a full untiled
//	                             decode returns the planes themselves
//
// The planes are sized to the decoded resolution: a decode that drops
// d levels works on the top-left ⌈w/2^d⌉×⌈h/2^d⌉ box of the Mallat
// layout and runs the inverse DWT over the remaining levels only.
// Every split is elementwise-independent, so the reconstructed pixels
// are bit-identical to the sequential decoder for every worker count,
// kernel set, and tiling — the decode half of the DESIGN.md §5
// invariant.

// ZeroPlanes clears pooled coefficient planes stripe-parallel. Planes
// from imgmodel.GetPlane carry arbitrary prior contents, and code-block
// regions a truncated or region-limited stream never includes must read
// as zero coefficients; the full padded stride is cleared so stride
// padding never leaks stale data downstream either.
func (p *Pipeline) ZeroPlanes(planes []*imgmodel.Plane) {
	if len(planes) == 0 {
		return
	}
	h := planes[0].H
	ns := stripes(h)
	p.run(obs.StageZero, 0, ns*len(planes), func(i int) {
		pl := planes[i/ns]
		y0, y1 := stripeBounds(i%ns, h)
		clear(pl.Data[y0*pl.Stride : y1*pl.Stride])
	})
}

// Dequantize converts quantizer indices back to coefficients in place,
// one job per (component, band), and returns the planes' float views.
// bands must tile the planes — all of a tile's bands, or the kept
// prefix of a reduced decode, which tiles its top-left box — so every
// live sample is converted exactly once; the stride padding is never
// read by the inverse transforms.
func (p *Pipeline) Dequantize(h *codestream.Header, bands []dwt.Band, planes []*imgmodel.Plane) []*imgmodel.FPlane {
	fplanes := make([]*imgmodel.FPlane, len(planes))
	for c, pl := range planes {
		fplanes[c] = pl.FloatView()
	}
	p.run(obs.StageDeq, 0, len(planes)*len(bands), func(i int) {
		c, b := i/len(bands), bands[i%len(bands)]
		if b.W == 0 || b.H == 0 {
			return
		}
		pl, fp := planes[c], fplanes[c]
		delta := float32(quant.StepFor(h.BaseDelta, h.Levels, b.Orient, b.Level))
		for y := b.Y0; y < b.Y0+b.H; y++ {
			quant.DequantizeRow(fp.Data[y*fp.Stride+b.X0:][:b.W], pl.Data[y*pl.Stride+b.X0:][:b.W], delta)
		}
	})
	return fplanes
}

// IDWT53 undoes reversible decomposition levels levels-1 down to stop
// over all planes: per level, horizontal inverse rows first, then the
// vertical inverse over column groups — the exact reverse of DWT53's
// phase order, with the same barriers. Bit-identical to
// dwt.InverseLevels53 on each plane.
func (p *Pipeline) IDWT53(planes []*imgmodel.Plane, levels, stop int) {
	w, h := planes[0].W, planes[0].H
	rec := p.rec
	for l := levels - 1; l >= stop; l-- {
		lw, lh := dwt.LevelDims(w, h, l)
		if lw <= 1 && lh <= 1 {
			continue
		}
		if lw > 1 {
			ns := stripes(lh)
			p.run(obs.StageIDWTHorz, int32(l), ns*len(planes), func(i int) {
				pl := planes[i/ns]
				y0, y1 := stripeBounds(i%ns, lh)
				tmp := getI32(lw, rec)
				dwt.InvHorizontal53Rows(pl.Data, lw, pl.Stride, y0, y1, *tmp)
				putI32(tmp)
				rec.Add(obs.CtrDWTBytesMoved, int64(y1-y0)*int64(lw)*8)
			})
		}
		if lh > 1 {
			chunks := decomp.Partition(lw, decomp.ChunkWidthFor(lw, p.workers), p.workers)
			nc := len(chunks)
			p.run(obs.StageIDWTVert, int32(l), nc*len(planes), func(i int) {
				pl, ch := planes[i/nc], chunks[i%nc]
				aux := getI32(dwt.AuxLen(ch.W, lh), rec)
				dwt.InvVertical53Stripe(pl.Data, ch.X0, ch.W, lh, pl.Stride, *aux)
				putI32(aux)
				rec.Add(obs.CtrDWTBytesMoved, int64(ch.W)*int64(lh)*8)
			})
		}
	}
}

// IDWT97 is the irreversible analogue of IDWT53; bit-identical to
// dwt.InverseLevels97 on each plane.
func (p *Pipeline) IDWT97(fplanes []*imgmodel.FPlane, levels, stop int) {
	w, h := fplanes[0].W, fplanes[0].H
	rec := p.rec
	for l := levels - 1; l >= stop; l-- {
		lw, lh := dwt.LevelDims(w, h, l)
		if lw <= 1 && lh <= 1 {
			continue
		}
		if lw > 1 {
			ns := stripes(lh)
			p.run(obs.StageIDWTHorz, int32(l), ns*len(fplanes), func(i int) {
				pl := fplanes[i/ns]
				y0, y1 := stripeBounds(i%ns, lh)
				tmp := getF32(lw, rec)
				dwt.InvHorizontal97Rows(pl.Data, lw, pl.Stride, y0, y1, *tmp)
				putF32(tmp)
				rec.Add(obs.CtrDWTBytesMoved, int64(y1-y0)*int64(lw)*8)
			})
		}
		if lh > 1 {
			chunks := decomp.Partition(lw, decomp.ChunkWidthFor(lw, p.workers), p.workers)
			nc := len(chunks)
			p.run(obs.StageIDWTVert, int32(l), nc*len(fplanes), func(i int) {
				pl, ch := fplanes[i/nc], chunks[i%nc]
				aux := getF32(dwt.AuxLen(ch.W, lh), rec)
				dwt.InvVertical97Stripe(pl.Data, ch.X0, ch.W, lh, pl.Stride, *aux)
				putF32(aux)
				rec.Add(obs.CtrDWTBytesMoved, int64(ch.W)*int64(lh)*8)
			})
		}
	}
}

// InverseMCTInt finishes the reversible path stripe-parallel over the
// rows of dst's window: copy the window out of the synthesized planes,
// apply the inverse RCT (or the plain unshift), and clamp — one fused
// pass per row stripe, the inverse of MCTInt. When dst is the planes
// themselves there is nothing to copy and the transform runs in place.
func (p *Pipeline) InverseMCTInt(dst tileTarget, planes []*imgmodel.Plane, h *codestream.Header) {
	r := dst.src
	inPlace := dst.img.Comps[0] == planes[0]
	useMCT := h.UseMCT && h.NComp == 3
	out := make([][]int32, len(planes))
	var stride int
	for c := range out {
		out[c], stride = dst.comp(c)
	}
	p.run(obs.StageIMCT, 0, stripes(r.H), func(s int) {
		y0, y1 := stripeBounds(s, r.H)
		if !inPlace {
			for c, pl := range planes {
				src := pl.Data[r.Y0*pl.Stride+r.X0:]
				for y := y0; y < y1; y++ {
					copy(out[c][y*stride:y*stride+r.W], src[y*pl.Stride:])
				}
			}
		}
		if useMCT {
			mct.InverseRCTRows(out[0], out[1], out[2], r.W, stride, y0, y1, h.Depth)
		} else {
			for _, o := range out {
				mct.UnshiftRows(o, r.W, stride, y0, y1, h.Depth)
			}
		}
		for _, o := range out {
			mct.ClampRows(o, r.W, stride, y0, y1, h.Depth)
		}
	})
}

// InverseMCTFloat finishes the irreversible path stripe-parallel over
// the rows of dst's window: inverse ICT (or round-unshift) straight from
// the synthesized float planes into the target, then clamp — the
// inverse of MCTFloat. When dst is the planes the float views belong
// to, each sample is rewritten in place as an integer.
func (p *Pipeline) InverseMCTFloat(dst tileTarget, fplanes []*imgmodel.FPlane, h *codestream.Header) {
	r := dst.src
	useMCT := h.UseMCT && h.NComp == 3
	in := make([][]float32, len(fplanes))
	out := make([][]int32, len(fplanes))
	var stride int
	for c, fp := range fplanes {
		in[c] = fp.Data[r.Y0*fp.Stride+r.X0:]
		out[c], stride = dst.comp(c)
	}
	fs := fplanes[0].Stride
	p.run(obs.StageIMCT, 0, stripes(r.H), func(s int) {
		y0, y1 := stripeBounds(s, r.H)
		if useMCT {
			mct.InverseICTRows(in[0], in[1], in[2], out[0], out[1], out[2], r.W, fs, stride, y0, y1, h.Depth)
		} else {
			for c := range out {
				mct.RoundShiftRows(in[c], out[c], r.W, fs, stride, y0, y1, h.Depth)
			}
		}
		for _, o := range out {
			mct.ClampRows(o, r.W, stride, y0, y1, h.Depth)
		}
	})
}

// blockCostFloor is the per-block fixed cost (coder-state init, scan
// setup) added to the scaled byte count when sizing Tier-1 decode
// partitions, in common time units calibrated against the MQ coder
// (one unit ≈ decoding one MQ-coded byte).
const blockCostFloor = 48

// t1CostModel prices one block decode for partition sizing. Different
// block coders have different fixed setup costs and per-byte decode
// rates, so the partitioner is parameterized rather than hardwired to
// MQ: cost = floor + codedBytes/byteDiv, both in the common units of
// blockCostFloor.
type t1CostModel struct {
	floor   int // fixed per-block cost (state init, scan setup)
	byteDiv int // coded bytes decoded per cost unit
}

var (
	// mqDecodeCost: serial arithmetic decoding, ~1 unit per byte.
	mqDecodeCost = t1CostModel{floor: blockCostFloor, byteDiv: 1}
	// htDecodeCost: the HT decoder moves bytes several times faster
	// than MQ (measured ~10× on dense blocks; 4 is the conservative
	// sparse-block figure) and its per-block setup is lighter — no MQ
	// context state to initialize.
	htDecodeCost = t1CostModel{floor: 16, byteDiv: 4}
)

// decodeCostFor selects the partition cost model for a Tier-1 mode.
func decodeCostFor(mode t1.Mode) t1CostModel {
	if mode.IsHT() {
		return htDecodeCost
	}
	return mqDecodeCost
}

func (m t1CostModel) of(t *blockTask) int { return m.floor + len(t.acc.data)/m.byteDiv }

// partitionDecodeTasks groups the block-decode tasks into contiguous
// work-queue jobs sized by modeled cost — the per-block coded byte
// counts T2 parsing just produced, priced by the active coder's cost
// model — instead of one fixed-size job per block. Cheap blocks
// (sparse high-frequency bands, heavily truncated layers) coalesce
// until a partition reaches the cost target (total/(workers*4), so
// claims stay frequent enough to balance); a block whose own cost
// exceeds the target becomes a singleton. The pass chain inside one
// block is strictly serial for both coders, so a single block is the
// finest split available — pass granularity is the floor. Because HT
// blocks are priced cheaper per byte, the same byte counts coalesce
// into fewer, larger partitions under the HT model, keeping per-job
// queue overhead proportional to actual decode time. Partition
// boundaries never change decoded pixels (blocks write disjoint plane
// regions); they only shape the queue's load balance.
func partitionDecodeTasks(rec *obs.Recorder, tasks []blockTask, workers int, model t1CostModel) []decodePart {
	if len(tasks) == 0 {
		return nil
	}
	cost := func(t *blockTask) int { return model.of(t) }
	total := 0
	for i := range tasks {
		total += cost(&tasks[i])
	}
	target := total / (workers * 4)
	// One shared absolute minimum in common units — NOT scaled by the
	// model floor — so a cheap coder coalesces more blocks per job
	// rather than just lowering the bar.
	if target < 4*blockCostFloor {
		target = 4 * blockCostFloor
	}
	var parts []decodePart
	lo, acc := 0, 0
	for i := range tasks {
		c := cost(&tasks[i])
		if acc > 0 && acc+c > target {
			parts = append(parts, decodePart{lo: lo, hi: i})
			lo, acc = i, 0
		}
		acc += c
	}
	parts = append(parts, decodePart{lo: lo, hi: len(tasks)})
	if rec != nil {
		singles := int64(0)
		for _, pt := range parts {
			if pt.hi-pt.lo == 1 && cost(&tasks[pt.lo]) >= target {
				singles++
			}
		}
		rec.Add(obs.CtrDecodeParts, int64(len(parts)))
		rec.Add(obs.CtrDecodeSingles, singles)
	}
	return parts
}

// decodePart is one dynamically-sized Tier-1 decode job: the tasks in
// [lo, hi).
type decodePart struct{ lo, hi int }
