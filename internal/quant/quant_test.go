package quant

import (
	"math"
	"testing"
	"testing/quick"

	"j2kcell/internal/dwt"
)

func TestQuantizeKnownValues(t *testing.T) {
	src := []float32{0, 0.49, 0.5, 1.49, -0.49, -0.5, -3.2}
	dst := make([]int32, len(src))
	QuantizeRow(dst, src, 0.5)
	want := []int32{0, 0, 1, 2, 0, -1, -6}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("q(%v)=%d, want %d", src[i], dst[i], want[i])
		}
	}
}

func TestDequantizeMidpoint(t *testing.T) {
	src := []int32{0, 1, -1, 10}
	dst := make([]float32, len(src))
	DequantizeRow(dst, src, 2.0)
	want := []float32{0, 3, -3, 21}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dq(%d)=%v, want %v", src[i], dst[i], want[i])
		}
	}
}

func TestPropQuantErrorBounded(t *testing.T) {
	f := func(raw int16, d8 uint8) bool {
		delta := float32(d8%50+1) / 10
		v := float32(raw) / 16
		var q [1]int32
		QuantizeRow(q[:], []float32{v}, delta)
		var r [1]float32
		DequantizeRow(r[:], q[:], delta)
		// Midpoint reconstruction error is at most Δ/2 — except in the
		// deadzone, whose bin is 2Δ wide, where it can reach Δ. A small
		// slack covers float32 rounding at cell boundaries.
		bound := float64(delta) / 2
		if q[0] == 0 {
			bound = float64(delta)
		}
		return math.Abs(float64(r[0]-v)) <= bound+math.Abs(float64(v))*1e-5+1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantSignSymmetry(t *testing.T) {
	f := func(raw int16, d8 uint8) bool {
		delta := float32(d8%50+1) / 10
		v := float32(raw) / 8
		var qp, qn [1]int32
		QuantizeRow(qp[:], []float32{v}, delta)
		QuantizeRow(qn[:], []float32{-v}, delta)
		return qp[0] == -qn[0] // deadzone is symmetric around 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStepForTracksGain(t *testing.T) {
	// Deeper (higher-gain) bands must get finer steps.
	s1 := StepFor(DefaultBaseDelta, 5, dwt.HL, 1)
	s5 := StepFor(DefaultBaseDelta, 5, dwt.HL, 5)
	if s5 >= s1 {
		t.Fatalf("step not finer at deeper level: L1=%v L5=%v", s1, s5)
	}
	// And HH bands get coarser steps than HL at the same level.
	if StepFor(DefaultBaseDelta, 5, dwt.HH, 1) <= StepFor(DefaultBaseDelta, 5, dwt.HL, 1) {
		t.Fatal("HH step should be coarser than HL")
	}
}

func TestMaxBitplanesCoversRealCoefficients(t *testing.T) {
	for _, lv := range []int{1, 3, 5} {
		for _, o := range []dwt.Orient{dwt.LL, dwt.HL, dwt.LH, dwt.HH} {
			level := lv
			if o != dwt.LL {
				level = 1
			}
			mb := MaxBitplanes(8, DefaultBaseDelta, lv, o, level)
			if mb < 8 || mb > 24 {
				t.Errorf("MaxBitplanes(%v,l%d)=%d outside sane range", o, level, mb)
			}
		}
	}
}

// TestStepForDoesNotAllocate pins that a step lookup — made once per
// band in every Tier-1, quantization and dequantization job — is a
// plain table read with no allocation.
func TestStepForDoesNotAllocate(t *testing.T) {
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		for l := 1; l <= 5; l++ {
			sink += StepFor(DefaultBaseDelta, 5, dwt.HL, l) + StepFor(DefaultBaseDelta, 5, dwt.HH, l)
		}
		sink += StepFor(DefaultBaseDelta, 5, dwt.LL, 5)
	}); n != 0 {
		t.Fatalf("StepFor allocates %v times per run", n)
	}
	_ = sink
}
