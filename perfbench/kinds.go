package main

import (
	"context"
	"strings"

	"j2kcell"
)

// Operation kinds: the codec.op_ms.<kind> rows. Every encode and decode
// the benchmark times is one of these.
var (
	encKinds = []string{"lossless_mq", "lossy_mq", "lossless_ht", "lossless_tiled"}
	decKinds = []string{"full", "thumb", "region", "layer1"}
)

// layeredRates are the cumulative rates of the 3-quality-layer lossy
// streams the thumbnail, window and first-layer decodes read.
var layeredRates = []float64{0.025, 0.05, 0.1}

// thumbDiscard is the resolution levels a thumbnail decode drops
// (1024² → 128²).
const thumbDiscard = 3

// isEncodeKind reports whether a kind names an encode.
func isEncodeKind(kind string) bool {
	return strings.HasPrefix(kind, "lossless_") || kind == "lossy_mq"
}

// encOptions returns the coding options of an encode kind.
func encOptions(kind string, tile int) j2kcell.Options {
	switch kind {
	case "lossy_mq":
		return j2kcell.Options{Rate: 0.1}
	case "lossless_ht":
		return j2kcell.Options{Lossless: true, HT: true}
	case "lossless_tiled":
		return j2kcell.Options{Lossless: true, TileW: tile, TileH: tile}
	}
	return j2kcell.Options{Lossless: true}
}

// decOptions returns the decode options of a decode kind at the given
// worker count; region is the window of "region" decodes.
func decOptions(kind string, region j2kcell.Rect, workers int) j2kcell.DecodeOptions {
	o := j2kcell.DecodeOptions{Workers: workers}
	switch kind {
	case "thumb":
		o.DiscardLevels = thumbDiscard
	case "region":
		o.Region = region
	case "layer1":
		o.MaxLayers = 1
	}
	return o
}

// encodeCall is the timed call of an encode kind.
func encodeCall(img *j2kcell.Image, opt j2kcell.Options) func(ctx context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		data, st, err := j2kcell.EncodeParallelContext(ctx, img, opt, opWorkers)
		return encoded{data, st}, err
	}
}

// decodeCall is the timed call of a decode kind.
func decodeCall(data []byte, opt j2kcell.DecodeOptions) func(ctx context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		img, err := j2kcell.DecodeWithContext(ctx, data, opt)
		if err != nil {
			return nil, err
		}
		return img, nil
	}
}

// quarterWindow is a ¼-edge decode window at a seeded offset.
func quarterWindow(w, h int, u, v uint64) j2kcell.Rect {
	rw, rh := max(w/4, 1), max(h/4, 1)
	return j2kcell.Rect{X0: int(u % uint64(w-rw+1)), Y0: int(v % uint64(h-rh+1)), W: rw, H: rh}
}

// bitsPerPixel is compressed size over image area.
func bitsPerPixel(bytes, w, h int) float64 { return 8 * float64(bytes) / float64(w*h) }
