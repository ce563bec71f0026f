// Determinism matrix for the whole-pipeline parallel encoder: the
// codestream must be byte-identical to the sequential encoder for
// every worker count, coding mode, and tiling — run `make race` to
// execute this matrix under the race detector.
package j2kcell

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"j2kcell/internal/simd"
)

// parallelCases is the determinism matrix: {lossless, lossy} ×
// {untiled, tiled}, with odd image dimensions so stripe and column
// boundaries exercise the edge paths.
var parallelCases = []struct {
	name string
	opt  Options
}{
	{"lossless", Options{Lossless: true}},
	{"lossy", Options{Rate: 0.2}},
	{"lossless-tiled", Options{Lossless: true, TileW: 48, TileH: 32}},
	{"lossy-tiled", Options{Rate: 0.2, TileW: 48, TileH: 32}},
	{"lossless-ht", Options{Lossless: true, HT: true}},
	{"lossy-ht", Options{Rate: 0.2, HT: true}},
	{"lossless-ht-tiled", Options{Lossless: true, HT: true, TileW: 48, TileH: 32}},
}

func workerCounts() []int {
	return []int{1, 2, 3, runtime.GOMAXPROCS(0)}
}

func TestEncodeParallelDeterminism(t *testing.T) {
	img := TestImage(97, 61, 7)
	for _, tc := range parallelCases {
		t.Run(tc.name, func(t *testing.T) {
			seq, _, err := Encode(img, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts() {
				t.Run(fmt.Sprintf("workers-%d", w), func(t *testing.T) {
					par, _, err := EncodeParallel(img, tc.opt, w)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(par, seq) {
						t.Fatalf("parallel stream differs from sequential (%d vs %d bytes)",
							len(par), len(seq))
					}
				})
			}
		})
	}
}

// TestEncodeKernelSetsDeterminism extends the matrix along the ISA
// axis: every selectable simd kernel set (scalar, and sse2/avx2 where
// the CPU has them) must produce the byte-identical codestream at
// every worker count. This is the executable form of the kernels'
// bit-identity contract — forcing scalar here is equivalent to running
// with J2K_NOSIMD=1 or the noasm build tag.
func TestEncodeKernelSetsDeterminism(t *testing.T) {
	prev := simd.Kernel()
	defer simd.Use(prev)
	img := TestImage(97, 61, 7)
	for _, tc := range parallelCases {
		t.Run(tc.name, func(t *testing.T) {
			if err := simd.Use("scalar"); err != nil {
				t.Fatal(err)
			}
			ref, _, err := Encode(img, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, kern := range simd.Available() {
				if err := simd.Use(kern); err != nil {
					t.Fatal(err)
				}
				for _, w := range workerCounts() {
					t.Run(fmt.Sprintf("%s-workers-%d", kern, w), func(t *testing.T) {
						got, _, err := EncodeParallel(img, tc.opt, w)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, ref) {
							t.Fatalf("kernel set %q stream differs from scalar (%d vs %d bytes)",
								kern, len(got), len(ref))
						}
					})
				}
			}
		})
	}
}

func TestDecodeParallelDeterminism(t *testing.T) {
	img := TestImage(97, 61, 7)
	for _, tc := range parallelCases {
		t.Run(tc.name, func(t *testing.T) {
			data, _, err := Encode(img, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts() {
				t.Run(fmt.Sprintf("workers-%d", w), func(t *testing.T) {
					got, err := DecodeParallel(data, w)
					if err != nil {
						t.Fatal(err)
					}
					if !ref.Equal(got) {
						t.Fatal("parallel decode differs from sequential")
					}
				})
			}
		})
	}
}

// TestDecodeKernelSetsDeterminism is the decode-side ISA × workers
// matrix: the reconstructed image must be pixel-identical to the
// scalar sequential decode for every selectable kernel set (the
// inverse lifting, dequantization, inverse MCT and clamp kernels all
// carry the same bit-identity contract as the forward ones), every
// worker count, coding mode, and tiling. Forcing scalar here is
// equivalent to running with J2K_NOSIMD=1 or the noasm build tag.
func TestDecodeKernelSetsDeterminism(t *testing.T) {
	prev := simd.Kernel()
	defer simd.Use(prev)
	img := TestImage(97, 61, 7)
	for _, tc := range parallelCases {
		t.Run(tc.name, func(t *testing.T) {
			data, _, err := Encode(img, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := simd.Use("scalar"); err != nil {
				t.Fatal(err)
			}
			ref, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, kern := range simd.Available() {
				if err := simd.Use(kern); err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 2, 8} {
					t.Run(fmt.Sprintf("%s-workers-%d", kern, w), func(t *testing.T) {
						got, err := DecodeParallel(data, w)
						if err != nil {
							t.Fatal(err)
						}
						if !ref.Equal(got) {
							t.Fatalf("kernel set %q decode differs from scalar sequential", kern)
						}
					})
				}
			}
		})
	}
}

// TestEncodeSteadyStateAllocs pins the allocation profile of the
// pooled pipeline: after a warm-up encode has populated the plane,
// Tier-1, and stripe-scratch arenas, a steady-state encode allocates
// only per-block outputs (Block structs, pass records, codeword
// copies) and the assembled stream — not coefficient planes or coder
// scratch. The bounds have ~1.5x headroom over measured values; a
// failure means per-encode scratch is being reallocated again.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	img := TestImage(192, 160, 9)
	for _, tc := range []struct {
		name   string
		opt    Options
		maxPer float64 // allocations per encode
	}{
		{"lossless", Options{Lossless: true}, 2500},
		{"lossy", Options{Rate: 0.2}, 9000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			encode := func() {
				if _, _, err := EncodeParallel(img, tc.opt, 1); err != nil {
					t.Fatal(err)
				}
			}
			encode() // warm the pools
			got := testing.AllocsPerRun(10, encode)
			t.Logf("allocs/encode = %.0f (bound %.0f)", got, tc.maxPer)
			if got > tc.maxPer {
				t.Fatalf("steady-state encode allocates %.0f times, want <= %.0f", got, tc.maxPer)
			}
		})
	}
}

// TestDecodeSteadyStateAllocs pins pool reuse across the decode
// stages: after a warm-up decode has populated the plane and
// stripe-scratch arenas, a steady-state decode allocates only per-run
// transients (packet/block accumulators, Tier-1 coder state) and its
// output. A full decode's output is its coefficient planes, allocated
// fresh and handed to the caller; the lossy path dequantizes in place
// in those planes, and the inverse DWT scratch comes from the arenas.
// The bounds have ~1.5x headroom over measured values; a failure means
// a decode stage stopped recycling.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	img := TestImage(192, 160, 9)
	for _, tc := range []struct {
		name   string
		opt    Options
		maxPer float64 // allocations per decode
	}{
		{"lossless", Options{Lossless: true}, 2200},
		{"lossy", Options{Rate: 0.2}, 4400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, _, err := Encode(img, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			decode := func() {
				if _, err := DecodeParallel(data, 1); err != nil {
					t.Fatal(err)
				}
			}
			decode() // warm the pools
			got := testing.AllocsPerRun(10, decode)
			t.Logf("allocs/decode = %.0f (bound %.0f)", got, tc.maxPer)
			if got > tc.maxPer {
				t.Fatalf("steady-state decode allocates %.0f times, want <= %.0f", got, tc.maxPer)
			}
		})
	}
}
