package codec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"j2kcell/internal/codestream"
	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/mct"
	"j2kcell/internal/obs"
	"j2kcell/internal/quant"
	"j2kcell/internal/workload"
)

// oracleDecode is the serial reference decoder: every tile's Tier-1
// output lands in full-size zeroed planes, and the serial chain below
// inverts only the kept levels, crops the reduced LL and finishes with
// the row-at-a-time inverse MCT. It shares only the packet walk and
// Tier-1 with the pipelined decoder.
func oracleDecode(data []byte, dopt DecodeOptions) (*imgmodel.Image, error) {
	h, bodies, err := codestream.DecodeTilesLimits(data, dopt.limits())
	if err != nil {
		return nil, err
	}
	discard := dopt.discard(h.Levels)
	scale := 1 << discard
	out := imgmodel.NewImage((h.W+scale-1)/scale, (h.H+scale-1)/scale, h.NComp, h.Depth)
	for i, r := range TileGrid(h.W, h.H, h.TileW, h.TileH) {
		p := NewPipeline(1)
		bands := dwt.Layout(r.W, r.H, h.Levels)
		tasks, err := parseTile(p, h, bands, bodies[i], dopt, nil)
		if err != nil {
			return nil, err
		}
		planes := make([]*imgmodel.Plane, h.NComp)
		for c := range planes {
			planes[c] = imgmodel.NewPlane(r.W, r.H)
		}
		if err := decodeBlocks(p, h, bands, r.W, r.H, tasks, planes, nil); err != nil {
			return nil, err
		}
		tile := reconstructReduced(h, bands, planes, r.W, r.H, discard)
		for c, pl := range tile.Comps {
			for y := 0; y < tile.H; y++ {
				copy(out.Comps[c].Row(r.Y0/scale + y)[r.X0/scale:], pl.Row(y))
			}
		}
	}
	return out, nil
}

// reconstructReduced inverse-transforms only the kept resolutions: the
// LL plane of the discarded levels becomes the output image.
func reconstructReduced(h *codestream.Header, bands []dwt.Band, planes []*imgmodel.Plane, tw, th, discard int) *imgmodel.Image {
	rw, rh := tw, th
	for i := 0; i < discard; i++ {
		rw, rh = (rw+1)/2, (rh+1)/2
	}
	img := imgmodel.NewImage(rw, rh, h.NComp, h.Depth)
	if h.Lossless {
		for c, p := range planes {
			// Invert levels discard..Levels-1 only, then crop the LL.
			dwt.InverseLevels53(p.Data, tw, th, p.Stride, h.Levels, discard)
			for y := 0; y < rh; y++ {
				copy(img.Comps[c].Row(y), p.Row(y)[:rw])
			}
		}
		inverseMCTInt(img, h)
		return img
	}
	fplanes := dequantize(h, bands, planes, tw, th)
	red := make([]*imgmodel.FPlane, len(fplanes))
	for c, fp := range fplanes {
		dwt.InverseLevels97(fp.Data, tw, th, fp.Stride, h.Levels, discard)
		r := imgmodel.NewFPlane(rw, rh)
		for y := 0; y < rh; y++ {
			copy(r.Row(y), fp.Row(y)[:rw])
		}
		red[c] = r
	}
	inverseMCTFloat(img, red, h)
	return img
}

// dequantize converts quantizer indices back to coefficients for every
// band (those of discarded resolutions hold zeros and are never read).
func dequantize(h *codestream.Header, bands []dwt.Band, planes []*imgmodel.Plane, w, hh int) []*imgmodel.FPlane {
	fplanes := make([]*imgmodel.FPlane, len(planes))
	for c, p := range planes {
		fp := imgmodel.NewFPlane(w, hh)
		for _, b := range bands {
			if b.W == 0 || b.H == 0 {
				continue
			}
			delta := float32(quant.StepFor(h.BaseDelta, h.Levels, b.Orient, b.Level))
			for y := b.Y0; y < b.Y0+b.H; y++ {
				quant.DequantizeRow(fp.Data[y*fp.Stride+b.X0:][:b.W], p.Data[y*p.Stride+b.X0:][:b.W], delta)
			}
		}
		fplanes[c] = fp
	}
	return fplanes
}

// inverseMCTInt finishes the reversible path: inverse RCT or unshift.
func inverseMCTInt(img *imgmodel.Image, h *codestream.Header) {
	for y := 0; y < img.H; y++ {
		if h.UseMCT && h.NComp == 3 {
			mct.InverseRCTRow(img.Comps[0].Row(y), img.Comps[1].Row(y), img.Comps[2].Row(y), h.Depth)
		} else {
			for c := range img.Comps {
				mct.UnshiftRow(img.Comps[c].Row(y), h.Depth)
			}
		}
	}
	clampImage(img, h.Depth)
}

// inverseMCTFloat finishes the irreversible path: inverse ICT (or
// unshift), rounding and clamping.
func inverseMCTFloat(img *imgmodel.Image, fplanes []*imgmodel.FPlane, h *codestream.Header) {
	off := float32(int32(1) << (h.Depth - 1))
	for y := 0; y < img.H; y++ {
		if h.UseMCT && h.NComp == 3 {
			mct.InverseICTRow(fplanes[0].Row(y), fplanes[1].Row(y), fplanes[2].Row(y),
				img.Comps[0].Row(y), img.Comps[1].Row(y), img.Comps[2].Row(y), h.Depth)
		} else {
			for c := range img.Comps {
				src, dst := fplanes[c].Row(y), img.Comps[c].Row(y)
				for i := range src {
					v := src[i] + off
					if v >= 0 {
						dst[i] = int32(v + 0.5)
					} else {
						dst[i] = -int32(-v + 0.5)
					}
				}
			}
		}
	}
	clampImage(img, h.Depth)
}

func clampImage(img *imgmodel.Image, depth int) {
	maxv := int32(1)<<depth - 1
	for _, p := range img.Comps {
		for y := 0; y < p.H; y++ {
			row := p.Row(y)
			for i, v := range row {
				if v < 0 {
					row[i] = 0
				} else if v > maxv {
					row[i] = maxv
				}
			}
		}
	}
}

// TestDecodeOutputScopedMatchesOracle pins the output-scoped inverse
// chain against the serial reference over {MQ,HT} × {lossless,lossy} ×
// {untiled, 64, 128 tiles} × levels {5,3} × odd and tiny sizes × one
// and three components: every reduced decode (discard 0..L, also with
// one quality layer) equals the oracle, every window equals the crop of
// the full decode, a best-effort decode of the undamaged stream equals
// the plain one, and each output is identical at 1, 2 and 4 workers.
// Tiled streams whose tile size is not divisible by 2^d keep failing.
func TestDecodeOutputScopedMatchesOracle(t *testing.T) {
	sizes := [][2]int{{257, 193}, {97, 131}, {64, 64}, {33, 7}}
	if testing.Short() {
		sizes = sizes[1:2]
	}
	decodes := 0
	// decodeAll decodes at every worker count, requires the outputs (or
	// errors) to agree, and returns the first.
	decodeAll := func(t *testing.T, data []byte, dopt DecodeOptions) (*imgmodel.Image, error) {
		t.Helper()
		var first *imgmodel.Image
		var firstErr error
		for i, w := range []int{1, 2, 4} {
			dopt.Workers = w
			img, err := DecodeWith(data, dopt)
			decodes++
			if i == 0 {
				first, firstErr = img, err
				continue
			}
			if fmt.Sprint(err) != fmt.Sprint(firstErr) || (err == nil && !img.Equal(first)) {
				t.Fatalf("%+v: workers=%d differs from workers=1 (err %v vs %v)", dopt, w, err, firstErr)
			}
		}
		return first, firstErr
	}
	for si, sz := range sizes {
		for _, ncomp := range []int{3, 1} {
			src := workload.Dial(sz[0], sz[1], uint32(7+si), 5)
			src.Comps = src.Comps[:ncomp]
			for _, ht := range []bool{false, true} {
				for _, lossless := range []bool{true, false} {
					for _, tile := range []int{0, 64, 128} {
						for _, levels := range []int{5, 3} {
							opt := Options{Lossless: lossless, HT: ht, Levels: levels, TileW: tile, TileH: tile}
							if !lossless {
								opt.LayerRates = []float64{0.05, 0.3}
							}
							name := fmt.Sprintf("%dx%d/c%d/ht=%v/lossless=%v/tile=%d/L=%d", sz[0], sz[1], ncomp, ht, lossless, tile, levels)
							t.Run(name, func(t *testing.T) {
								res, err := EncodeParallel(src, opt, 2)
								if err != nil {
									t.Fatal(err)
								}
								h, bodies, err := codestream.DecodeTilesLimits(res.Data, DefaultLimits())
								if err != nil {
									t.Fatal(err)
								}
								tiled := len(bodies) > 1
								for d := 0; d <= levels; d++ {
									for _, layers := range []int{0, 1} {
										dopt := DecodeOptions{DiscardLevels: d, MaxLayers: layers}
										got, err := decodeAll(t, res.Data, dopt)
										if tiled && (h.TileW%(1<<d) != 0 || h.TileH%(1<<d) != 0) {
											if err == nil || !strings.Contains(err.Error(), "divisible by 2^") {
												t.Fatalf("%+v: got %v, want the tile-divisibility error", dopt, err)
											}
											continue
										}
										if err != nil {
											t.Fatalf("%+v: %v", dopt, err)
										}
										want, err := oracleDecode(res.Data, dopt)
										if err != nil {
											t.Fatal(err)
										}
										if !got.Equal(want) {
											t.Fatalf("%+v: pipelined decode differs from the serial oracle", dopt)
										}
										dopt.BestEffort = true
										if be, _ := decodeAll(t, res.Data, dopt); !be.Equal(got) {
											t.Fatalf("%+v: best-effort decode of an undamaged stream differs", dopt)
										}
									}
								}
								full, err := decodeAll(t, res.Data, DecodeOptions{})
								if err != nil {
									t.Fatal(err)
								}
								W, H := sz[0], sz[1]
								for _, r := range []Rect{
									{W: W, H: H}, {X0: W / 4, Y0: H / 4, W: W / 4, H: H / 4},
									{X0: 1, Y0: 1, W: 1, H: 1}, {X0: W - 5, Y0: H - 3, W: 5, H: 3},
									{X0: W / 3, W: W / 2, H: H},
								} {
									if r.W <= 0 || r.H <= 0 {
										continue
									}
									win, err := decodeAll(t, res.Data, DecodeOptions{Region: r})
									if err != nil {
										t.Fatalf("window %+v: %v", r, err)
									}
									if !win.Equal(full.SubImage(r.X0, r.Y0, r.W, r.H)) {
										t.Fatalf("window %+v differs from the crop of the full decode", r)
									}
								}
							})
						}
					}
				}
			}
		}
	}
	t.Logf("%d decodes", decodes)
}

// TestDecodeMemoryScalesWithOutput pins that decode memory follows the
// requested output, not the source image: on a warm 512² lossless
// stream a DiscardLevels=3 thumbnail and a 64×64 window each allocate
// at most a quarter of a full decode, and a 128-tile full decode (whose
// tiles write straight into the one output) at most 1.2× an untiled one.
func TestDecodeMemoryScalesWithOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a random quarter of sync.Pool puts, so no decode reaches the pooled steady state")
	}
	img := workload.Dial(512, 512, 3, 5)
	untiled, err := Encode(img, Options{Lossless: true})
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := EncodeParallel(img, Options{Lossless: true, TileW: 128, TileH: 128}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// allocPerDecode is the least TotalAlloc of single warm decodes: the
	// steady state. Any one decode may refill a pooled plane after a GC
	// has emptied the pools.
	allocPerDecode := func(data []byte, dopt DecodeOptions) float64 {
		decode := func() {
			if _, err := DecodeWith(data, dopt); err != nil {
				t.Fatal(err)
			}
		}
		decode() // warm the plane and scratch pools
		least := uint64(math.MaxUint64)
		var a, b runtime.MemStats
		for i := 0; i < 15; i++ {
			runtime.ReadMemStats(&a)
			decode()
			runtime.ReadMemStats(&b)
			least = min(least, b.TotalAlloc-a.TotalAlloc)
		}
		return float64(least)
	}
	full := allocPerDecode(untiled.Data, DecodeOptions{})
	thumb := allocPerDecode(untiled.Data, DecodeOptions{DiscardLevels: 3})
	window := allocPerDecode(untiled.Data, DecodeOptions{Region: Rect{X0: 200, Y0: 100, W: 64, H: 64}})
	tiledFull := allocPerDecode(tiled.Data, DecodeOptions{})
	t.Logf("bytes/decode: full %.0f, thumbnail %.0f, window %.0f, 128-tiled full %.0f", full, thumb, window, tiledFull)
	if thumb > full/4 {
		t.Errorf("DiscardLevels=3 decode allocates %.0f bytes, want <= 1/4 of the full decode's %.0f", thumb, full)
	}
	if window > full/4 {
		t.Errorf("64x64 window decode allocates %.0f bytes, want <= 1/4 of the full decode's %.0f", window, full)
	}
	if tiledFull > 1.2*full {
		t.Errorf("128-tile decode allocates %.0f bytes, want <= 1.2x the untiled decode's %.0f", tiledFull, full)
	}
}

// TestPlaneBytesFollowsOutput pins the plane_bytes counter an operation
// reports: a full or reduced untiled decode acquires exactly one plane
// per component at the decoded resolution (the lossy path included,
// since it dequantizes in place), and a window decode the full-size
// planes its inverse DWT needs.
func TestPlaneBytesFollowsOutput(t *testing.T) {
	img := workload.Dial(200, 120, 3, 5)
	for _, opt := range []Options{{Lossless: true}, {Rate: 0.2}} {
		res, err := Encode(img, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Rows are padded to 32 samples: 200 → 224, 50 → 64.
		for _, tc := range []struct {
			dopt DecodeOptions
			want int64
		}{
			{DecodeOptions{}, 3 * 224 * 120 * 4},
			{DecodeOptions{DiscardLevels: 2}, 3 * 64 * 30 * 4},
			{DecodeOptions{Region: Rect{X0: 10, Y0: 10, W: 20, H: 20}}, 3 * 224 * 120 * 4},
		} {
			ctx, op := obs.WithOperation(context.Background(), "decode")
			if _, err := DecodeWithContext(ctx, res.Data, tc.dopt); err != nil {
				t.Fatal(err)
			}
			if got := op.Recorder().Counter(obs.CtrPlaneBytes); got != tc.want {
				t.Errorf("lossless=%v %+v: plane_bytes %d, want %d", opt.Lossless, tc.dopt, got, tc.want)
			}
			op.Finish()
		}
	}
}
