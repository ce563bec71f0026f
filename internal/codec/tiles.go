package codec

import (
	"context"
	"fmt"

	"j2kcell/internal/codestream"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/obs"
)

// Rect is one tile's placement within the image.
type Rect struct {
	X0, Y0, W, H int
}

// TileGrid returns the tile rectangles in raster order for an image
// split into tw×th tiles anchored at the origin (edge tiles shrink).
func TileGrid(w, h, tw, th int) []Rect {
	var out []Rect
	for y := 0; y < h; y += th {
		hh := th
		if y+hh > h {
			hh = h - y
		}
		for x := 0; x < w; x += tw {
			ww := tw
			if x+ww > w {
				ww = w - x
			}
			out = append(out, Rect{X0: x, Y0: y, W: ww, H: hh})
		}
	}
	return out
}

// decodeTiled reassembles a multi-tile stream. Tiles are fully
// independent and each writes its own disjoint window of the shared
// output image, so they drain the same atomic work queue the tiled
// encoder uses (each tile's own stages then run inline on a
// single-worker inner pipeline, as on the encode side). Context errors
// and contained faults pass through unwrapped via the queue's fault
// latch; per-tile parse failures gain the tile index, earliest tile
// first.
func decodeTiled(ctx context.Context, h *codestream.Header, bodies [][]byte, dopt DecodeOptions) (*imgmodel.Image, error) {
	grid := TileGrid(h.W, h.H, h.TileW, h.TileH)
	if len(bodies) != len(grid) {
		return nil, fmt.Errorf("codec: %d tile parts for a %d-tile grid", len(bodies), len(grid))
	}
	discard := dopt.discard(h.Levels)
	scale := 1 << uint(discard)
	if discard > 0 && (h.TileW%scale != 0 || h.TileH%scale != 0) {
		return nil, fmt.Errorf("codec: reduced decode of tiled stream needs tile size divisible by 2^%d", discard)
	}
	// Window decode: only tiles intersecting the region are decoded at
	// all, each writing its overlap. Otherwise every tile writes its
	// whole reduced extent.
	reg := Rect{W: (h.W + scale - 1) / scale, H: (h.H + scale - 1) / scale}
	if dopt.regionSet() {
		reg = dopt.Region
	}
	out := imgmodel.NewImage(reg.W, reg.H, h.NComp, h.Depth)
	p := NewPipelineContext(ctx, dopt.Workers)
	defer p.Close()
	td := dopt
	td.Workers = 1 // tiles are the parallel unit; inner stages run inline
	terrs := make([]error, len(grid))
	p.run(obs.StageTile, 0, len(grid), func(i int) {
		tdi, dst, ok := tileJob(grid[i], reg, scale, td, out)
		if !ok {
			return
		}
		if _, err := decodeTile(p.Context(), h, grid[i].W, grid[i].H, bodies[i], tdi, nil, dst); err != nil {
			if passthrough(err) {
				p.Fail(err)
			} else {
				terrs[i] = err
			}
		}
	})
	if perr := p.Err(); perr != nil {
		return nil, perr
	}
	for i, err := range terrs {
		if err != nil {
			return nil, formatErrf(err, "tile %d", i)
		}
	}
	return out, nil
}

// tileJob places tile r of a decode whose output image out shows the
// window reg of the decoded-resolution image (scale = 2^DiscardLevels):
// the tile's options, with a tile-local Region for window decodes, and
// its target in out. ok is false when the tile does not touch the
// window.
func tileJob(r, reg Rect, scale int, dopt DecodeOptions, out *imgmodel.Image) (td DecodeOptions, dst tileTarget, ok bool) {
	td = dopt
	// The tile's extent at the decoded resolution; tiles of reduced
	// decodes sit at multiples of scale.
	rr := Rect{X0: r.X0 / scale, Y0: r.Y0 / scale, W: (r.W + scale - 1) / scale, H: (r.H + scale - 1) / scale}
	if !rectsIntersect(rr, reg) {
		return td, dst, false
	}
	lo := Rect{X0: max(reg.X0-rr.X0, 0), Y0: max(reg.Y0-rr.Y0, 0)} // overlap, tile-local
	lo.W = min(reg.X0+reg.W, rr.X0+rr.W) - (rr.X0 + lo.X0)
	lo.H = min(reg.Y0+reg.H, rr.Y0+rr.H) - (rr.Y0 + lo.Y0)
	if dopt.regionSet() {
		td.Region = lo
	}
	return td, tileTarget{img: out, src: lo, dx: rr.X0 + lo.X0 - reg.X0, dy: rr.Y0 + lo.Y0 - reg.Y0}, true
}
