package codec

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"j2kcell/internal/faults"
	"j2kcell/internal/workload"
)

// goroutineCount waits for transient goroutines (GC, finished workers)
// to drain and returns a stable count; used to pin "no leak".
func goroutineCount() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m <= n {
			return m
		}
		n = m
	}
	return n
}

// faultOp is one codec operation the injection matrix drives, with the
// stages its pipeline actually enters.
type faultOp struct {
	name   string
	stages []string
	run    func(workers int) error
}

// TestFaultInjectionMatrix arms a fault — panic and injected error —
// in every stage of every operation, at every worker width, and
// requires each run to fail cleanly with a *FaultError naming the
// armed stage: no escaped panic, no hang, no goroutine leak, and the
// pools still produce byte-identical output afterwards.
func TestFaultInjectionMatrix(t *testing.T) {
	img := workload.Dial(128, 128, 9, 4)
	losslessOpt := Options{Lossless: true}
	rateOpt := Options{Rate: 0.2}
	tiledOpt := Options{Rate: 0.3, TileW: 64, TileH: 64}

	htOpt := Options{Lossless: true, HT: true}
	htRateOpt := Options{Rate: 0.2, HT: true}

	base, err := Encode(img, losslessOpt)
	if err != nil {
		t.Fatal(err)
	}
	htSrc, err := Encode(img, htOpt)
	if err != nil {
		t.Fatal(err)
	}
	htRateSrc, err := Encode(img, htRateOpt)
	if err != nil {
		t.Fatal(err)
	}
	decSrc, err := Encode(img, rateOpt)
	if err != nil {
		t.Fatal(err)
	}
	tiledSrc, err := EncodeTiled(img, tiledOpt, 1)
	if err != nil {
		t.Fatal(err)
	}

	ops := []faultOp{
		{
			name:   "encode-lossless",
			stages: []string{"mct", "dwt-v", "dwt-h", "t1"},
			run: func(w int) error {
				_, err := EncodeParallel(img, losslessOpt, w)
				return err
			},
		},
		{
			name:   "encode-lossy-rate",
			stages: []string{"mct", "dwt-v", "dwt-h", "t1", "rate"},
			run: func(w int) error {
				_, err := EncodeParallel(img, rateOpt, w)
				return err
			},
		},
		{
			name:   "encode-tiled",
			stages: []string{"tile", "mct", "dwt-v", "dwt-h", "quant"},
			run: func(w int) error {
				_, err := EncodeParallel(img, tiledOpt, w)
				return err
			},
		},
		{
			name:   "decode-lossy",
			stages: []string{"t1", "deq", "idwt-h", "idwt-v", "imct"},
			run: func(w int) error {
				_, err := DecodeWith(decSrc.Data, DecodeOptions{Workers: w})
				return err
			},
		},
		{
			name:   "decode-lossless",
			stages: []string{"t1", "idwt-h", "idwt-v", "imct"},
			run: func(w int) error {
				_, err := DecodeWith(base.Data, DecodeOptions{Workers: w})
				return err
			},
		},
		{
			// HT Tier-1 runs under its own stage ("t1ht"), so the coder
			// swap carries its own fault injection point on both sides.
			name:   "encode-ht",
			stages: []string{"mct", "dwt-v", "dwt-h", "t1ht"},
			run: func(w int) error {
				_, err := EncodeParallel(img, htOpt, w)
				return err
			},
		},
		{
			name:   "encode-ht-rate",
			stages: []string{"t1ht", "rate"},
			run: func(w int) error {
				_, err := EncodeParallel(img, htRateOpt, w)
				return err
			},
		},
		{
			name:   "decode-ht",
			stages: []string{"t1ht", "idwt-h", "idwt-v", "imct"},
			run: func(w int) error {
				_, err := DecodeWith(htSrc.Data, DecodeOptions{Workers: w})
				return err
			},
		},
		{
			name:   "decode-ht-lossy",
			stages: []string{"t1ht", "deq"},
			run: func(w int) error {
				_, err := DecodeWith(htRateSrc.Data, DecodeOptions{Workers: w})
				return err
			},
		},
		{
			// A window decode clears pooled planes (full and reduced
			// decodes get fresh, already-zero planes that become the
			// output, so they have no zero stage) and writes only the
			// window in its inverse MCT.
			name:   "decode-window",
			stages: []string{"zero", "t1", "deq", "idwt-h", "idwt-v", "imct"},
			run: func(w int) error {
				_, err := DecodeWith(decSrc.Data, DecodeOptions{Workers: w, Region: Rect{X0: 10, Y0: 20, W: 100, H: 90}})
				return err
			},
		},
		{
			// Reduced decode runs the same pipelined inverse chain over
			// the kept levels (its 64-row output is one imct stripe, so
			// the second-entry fault has no imct job to land on).
			name:   "decode-reduced",
			stages: []string{"t1", "idwt-h", "idwt-v"},
			run: func(w int) error {
				_, err := DecodeWith(base.Data, DecodeOptions{Workers: w, DiscardLevels: 1})
				return err
			},
		},
		{
			// Tiled decode: faults in the tile queue itself, and in the
			// inner per-tile stages (whose *FaultError must pass through
			// the tile queue's latch unwrapped).
			name:   "decode-tiled",
			stages: []string{"tile", "zero", "deq", "imct"},
			run: func(w int) error {
				_, err := DecodeWith(tiledSrc.Data, DecodeOptions{Workers: w})
				return err
			},
		},
	}

	before := goroutineCount()
	for _, op := range ops {
		for _, stage := range op.stages {
			for _, workers := range []int{1, 2, 8} {
				for _, mode := range []faults.Mode{faults.Panic, faults.Error} {
					name := fmt.Sprintf("%s/%s/w%d/mode%d", op.name, stage, workers, mode)
					faults.Arm(stage, 2, mode)
					err := op.run(workers)
					fired := faults.Fired()
					faults.Disarm()
					if fired != 1 {
						t.Fatalf("%s: fault fired %d times, want 1", name, fired)
					}
					var fe *FaultError
					if !errors.As(err, &fe) {
						t.Fatalf("%s: got %v (%T), want *FaultError", name, err, err)
					}
					if fe.Stage != stage {
						t.Fatalf("%s: FaultError.Stage = %q, want %q", name, fe.Stage, stage)
					}
				}
			}
		}
	}

	// Leak pin: every aborted run must have joined its workers.
	if after := goroutineCount(); after > before+2 {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d before, %d after\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}

	// Pool-consistency pin: the pools that recycled through dozens of
	// aborted encodes must still serve byte-identical output.
	again, err := Encode(img, losslessOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base.Data, again.Data) {
		t.Fatal("encode output changed after fault matrix — pools corrupted")
	}
}

// TestBestEffortDemotesTier1Faults extends the fault matrix with the
// best-effort rows: a panic or injected error in one Tier-1 job must
// demote to the loss of exactly one code block — sibling blocks decode
// pixel-identical to the undamaged reference — with the fault's
// stage/lane/job coordinates carried into the damage report instead of
// being dropped at the first-error latch.
func TestBestEffortDemotesTier1Faults(t *testing.T) {
	img := workload.Dial(128, 128, 9, 4)
	res, err := Encode(img, Options{Lossless: true, Resilience: true, CBW: 16, CBH: 16})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Decode(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []faults.Mode{faults.Panic, faults.Error} {
		for _, workers := range []int{1, 2, 8} {
			name := fmt.Sprintf("t1/w%d/mode%d/best-effort", workers, mode)
			faults.Arm("t1", 2, mode)
			dec, rep := DecodeResilient(res.Data, DecodeOptions{Workers: workers})
			fired := faults.Fired()
			faults.Disarm()
			if fired != 1 {
				t.Fatalf("%s: fault fired %d times, want 1", name, fired)
			}
			if rep.LostBlocks != 1 {
				t.Fatalf("%s: %d blocks lost, want the single faulted one: %v", name, rep.LostBlocks, rep)
			}
			if len(rep.Tiles) != 1 {
				t.Fatalf("%s: %d damaged tiles, want 1", name, len(rep.Tiles))
			}
			td := rep.Tiles[0]
			if len(td.Faults) != 1 || td.Faults[0].Stage != "t1" || td.Faults[0].Job < 0 {
				t.Fatalf("%s: fault coordinates not propagated into report: %+v", name, td.Faults)
			}
			if rep.LostPackets != 0 || rep.Truncated {
				t.Fatalf("%s: unrelated damage reported: %v", name, rep)
			}
			// Sibling blocks: every pixel outside the lost block's
			// region matches the undamaged decode exactly.
			reg := td.Region
			if reg.W <= 0 || reg.H <= 0 {
				t.Fatalf("%s: lost block has empty region", name)
			}
			for c := range ref.Comps {
				for y := 0; y < ref.H; y++ {
					rrow, drow := ref.Comps[c].Row(y), dec.Comps[c].Row(y)
					for x := 0; x < ref.W; x++ {
						in := x >= reg.X0 && x < reg.X0+reg.W && y >= reg.Y0 && y < reg.Y0+reg.H
						if !in && rrow[x] != drow[x] {
							t.Fatalf("%s: sibling pixel (%d,%d,c%d) damaged outside region %+v",
								name, x, y, c, reg)
						}
					}
				}
			}
		}
	}
}

// TestBestEffortDemotesIMCTFaultToTile is the tiled best-effort row of
// the fault matrix for the stage that writes the output: tiles write
// their inverse MCT straight into the shared image, so a fault after a
// tile's first stripe has landed must still leave that tile's window
// reading zero, and every other tile pixel-identical to the undamaged
// decode.
func TestBestEffortDemotesIMCTFaultToTile(t *testing.T) {
	img := workload.Dial(256, 256, 5, 4)
	// 128-row tiles are two imct stripes each, so the second imct entry
	// can fault a tile whose first stripe is already in the output.
	res, err := EncodeTiled(img, Options{Lossless: true, TileW: 128, TileH: 128}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Decode(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []faults.Mode{faults.Panic, faults.Error} {
		for _, workers := range []int{1, 2, 8} {
			name := fmt.Sprintf("imct/w%d/mode%d/best-effort", workers, mode)
			faults.Arm("imct", 2, mode)
			dec, rep := DecodeResilient(res.Data, DecodeOptions{Workers: workers})
			fired := faults.Fired()
			faults.Disarm()
			if fired != 1 {
				t.Fatalf("%s: fault fired %d times, want 1", name, fired)
			}
			if len(rep.Tiles) != 1 || rep.Complete {
				t.Fatalf("%s: want exactly one concealed tile, got %v", name, rep)
			}
			td := rep.Tiles[0]
			if len(td.Faults) != 1 || td.Faults[0].Stage != "imct" {
				t.Fatalf("%s: fault not attributed to imct: %+v", name, td.Faults)
			}
			reg := td.Region
			if reg.W != 128 || reg.H != 128 {
				t.Fatalf("%s: concealed region %+v, want the whole 128x128 tile", name, reg)
			}
			for c := range ref.Comps {
				for y := 0; y < ref.H; y++ {
					rrow, drow := ref.Comps[c].Row(y), dec.Comps[c].Row(y)
					for x := 0; x < ref.W; x++ {
						in := x >= reg.X0 && x < reg.X0+reg.W && y >= reg.Y0 && y < reg.Y0+reg.H
						if in && drow[x] != 0 {
							t.Fatalf("%s: faulted tile pixel (%d,%d,c%d) = %d, want 0", name, x, y, c, drow[x])
						}
						if !in && rrow[x] != drow[x] {
							t.Fatalf("%s: pixel (%d,%d,c%d) outside the faulted tile damaged", name, x, y, c)
						}
					}
				}
			}
		}
	}
}

// TestFaultErrorCarriesCoordinates checks the located fields and the
// unwrap chain of both fault flavors.
func TestFaultErrorCarriesCoordinates(t *testing.T) {
	img := workload.Dial(96, 96, 3, 4)

	faults.Arm("t1", 3, faults.Error)
	_, err := EncodeParallel(img, Options{Lossless: true}, 2)
	faults.Disarm()
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FaultError", err)
	}
	if fe.Job < 0 || fe.Lane < 0 {
		t.Errorf("missing coordinates: lane=%d job=%d", fe.Lane, fe.Job)
	}
	var inj *faults.InjectedError
	if !errors.As(err, &inj) {
		t.Errorf("injected error not reachable via Unwrap: %v", err)
	}

	faults.Arm("dwt-h", 1, faults.Panic)
	_, err = EncodeParallel(img, Options{Lossless: true}, 2)
	faults.Disarm()
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FaultError", err)
	}
	if fe.Panic == nil || len(fe.Stack) == 0 {
		t.Errorf("panic fault lost its value or stack: %+v", fe)
	}
}

// TestSequentialEncodeContainsFaults pins the workers=1 inline path:
// containment does not depend on goroutines existing.
func TestSequentialEncodeContainsFaults(t *testing.T) {
	img := workload.Dial(64, 64, 2, 4)
	faults.Arm("mct", 1, faults.Panic)
	_, err := Encode(img, Options{Lossless: true})
	faults.Disarm()
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FaultError", err)
	}
	if fe.Stage != "mct" {
		t.Fatalf("Stage = %q, want mct", fe.Stage)
	}
}

// TestPoolsSurviveFaultedEncodes pins steady-state allocations: an
// encode aborted mid-stage returns its pooled planes, so allocations
// per encode stay in the same band afterwards.
func TestPoolsSurviveFaultedEncodes(t *testing.T) {
	img := workload.Dial(128, 128, 5, 4)
	opt := Options{Lossless: true}
	encode := func() {
		if _, err := EncodeParallel(img, opt, 2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		encode() // warm the plane and scratch pools
	}
	before := testing.AllocsPerRun(5, encode)

	for i := 0; i < 5; i++ {
		faults.Arm("t1", 1, faults.Panic)
		if _, err := EncodeParallel(img, opt, 2); err == nil {
			t.Fatal("faulted encode returned nil error")
		}
		faults.Disarm()
	}

	encode() // one refill pass after the aborts
	after := testing.AllocsPerRun(5, encode)
	// sync.Pool interplay with GC makes exact pins flaky; the defect
	// this guards against (planes never returned on the abort path)
	// would at least double the count.
	if after > before*2+200 {
		t.Errorf("allocations grew after faulted encodes: %.0f -> %.0f", before, after)
	}
}
