package imgmodel

import (
	"math"
	"testing"
)

func TestPlaneStridePadded(t *testing.T) {
	p := NewPlane(33, 2)
	if p.Stride != 64 {
		t.Fatalf("stride %d, want 64", p.Stride)
	}
	if len(p.Row(1)) != 33 {
		t.Fatalf("row length %d", len(p.Row(1)))
	}
}

func TestPlaneAtSetCloneEqual(t *testing.T) {
	p := NewPlane(10, 5)
	p.Set(4, 9, -7)
	if p.At(4, 9) != -7 {
		t.Fatal("At/Set broken")
	}
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	q.Set(0, 0, 1)
	if p.Equal(q) {
		t.Fatal("Equal missed a difference")
	}
	if p.Equal(NewPlane(10, 4)) {
		t.Fatal("Equal ignored geometry")
	}
}

func TestEqualIgnoresPadding(t *testing.T) {
	p, q := NewPlane(10, 2), NewPlane(10, 2)
	p.Data[20] = 99 // padding word of row 0 (stride is 32)
	if !p.Equal(q) {
		t.Fatal("Equal compared padding")
	}
}

func TestNewPlanePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewPlane(-1, 3)
}

func TestFPlane(t *testing.T) {
	p := NewFPlane(40, 3)
	if p.Stride != 64 {
		t.Fatalf("stride %d", p.Stride)
	}
	p.Set(2, 39, 1.5)
	if p.At(2, 39) != 1.5 || p.Row(2)[39] != 1.5 {
		t.Fatal("FPlane accessors broken")
	}
}

func TestImageCloneEqual(t *testing.T) {
	a := NewImage(8, 8, 3, 8)
	a.Comps[2].Set(3, 3, 77)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone unequal")
	}
	b.Comps[2].Set(3, 3, 78)
	if a.Equal(b) {
		t.Fatal("Equal missed change")
	}
}

func TestPSNR(t *testing.T) {
	a := NewImage(4, 4, 1, 8)
	b := a.Clone()
	if !math.IsInf(a.PSNR(b), 1) {
		t.Fatal("identical images must have +Inf PSNR")
	}
	// Uniform error of 1 LSB: MSE=1, PSNR = 20*log10(255) ≈ 48.13 dB.
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			b.Comps[0].Set(r, c, 1)
		}
	}
	got := a.PSNR(b)
	if math.Abs(got-48.1308) > 0.01 {
		t.Fatalf("PSNR %.4f, want 48.1308", got)
	}
}

func TestSubImageCopiesRectangle(t *testing.T) {
	img := NewImage(20, 15, 3, 8)
	for c, p := range img.Comps {
		for y := 0; y < 15; y++ {
			for x := 0; x < 20; x++ {
				p.Set(y, x, int32(c*100+y*20+x))
			}
		}
	}
	sub := img.SubImage(5, 3, 8, 6)
	if sub.W != 8 || sub.H != 6 || len(sub.Comps) != 3 || sub.Depth != 8 {
		t.Fatalf("SubImage geometry %dx%d/%d/%d", sub.W, sub.H, len(sub.Comps), sub.Depth)
	}
	for c := range img.Comps {
		for y := 0; y < 6; y++ {
			for x := 0; x < 8; x++ {
				if sub.Comps[c].At(y, x) != img.Comps[c].At(y+3, x+5) {
					t.Fatalf("SubImage sample (%d,%d,c%d) misplaced", x, y, c)
				}
			}
		}
	}
}
