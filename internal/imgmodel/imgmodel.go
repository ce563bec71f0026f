// Package imgmodel defines the planar image representation shared by
// the JPEG2000 codec stages: whole-sample components stored as 4-byte
// integers (or floats mid-pipeline in the irreversible path) with rows
// padded to cache-line multiples, matching the paper's row-padding
// convention so planes can be handed to the Cell model zero-copy.
package imgmodel

import (
	"fmt"
	"math"
	"unsafe"
)

// StrideAlign is the row padding granule in 4-byte words (one 128-byte
// cache line).
const StrideAlign = 32

// padStride rounds w up to a multiple of StrideAlign.
func padStride(w int) int { return (w + StrideAlign - 1) / StrideAlign * StrideAlign }

// Plane is one image component: H rows of W int32 samples with a padded
// Stride.
type Plane struct {
	Data   []int32
	W, H   int
	Stride int
}

// NewPlane allocates a zeroed W×H plane with padded rows.
func NewPlane(w, h int) *Plane {
	// invariant: callers derive w,h from geometry already validated at the
	// API boundary (validateImage, codestream SIZ checks); 0 here is a bug.
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgmodel: invalid plane size %dx%d", w, h))
	}
	s := padStride(w)
	return &Plane{Data: make([]int32, s*h), W: w, H: h, Stride: s}
}

// Row returns row r restricted to the plane width.
func (p *Plane) Row(r int) []int32 { return p.Data[r*p.Stride : r*p.Stride+p.W] }

// At returns the sample at row r, column c.
func (p *Plane) At(r, c int) int32 { return p.Data[r*p.Stride+c] }

// Set stores v at row r, column c.
func (p *Plane) Set(r, c int, v int32) { p.Data[r*p.Stride+c] = v }

// Clone returns a deep copy of the plane.
func (p *Plane) Clone() *Plane {
	q := &Plane{Data: make([]int32, len(p.Data)), W: p.W, H: p.H, Stride: p.Stride}
	copy(q.Data, p.Data)
	return q
}

// Equal reports whether two planes have identical geometry and samples
// (padding words are ignored).
func (p *Plane) Equal(q *Plane) bool {
	if p.W != q.W || p.H != q.H {
		return false
	}
	for r := 0; r < p.H; r++ {
		pr, qr := p.Row(r), q.Row(r)
		for c := range pr {
			if pr[c] != qr[c] {
				return false
			}
		}
	}
	return true
}

// FPlane is a float32 component used mid-pipeline in the irreversible
// (lossy) path between the ICT and quantization.
type FPlane struct {
	Data   []float32
	W, H   int
	Stride int
}

// NewFPlane allocates a zeroed W×H float plane with padded rows.
func NewFPlane(w, h int) *FPlane {
	// invariant: same validated-geometry contract as NewPlane.
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgmodel: invalid plane size %dx%d", w, h))
	}
	s := padStride(w)
	return &FPlane{Data: make([]float32, s*h), W: w, H: h, Stride: s}
}

// FloatView returns a float plane over p's own memory (same geometry,
// same stride): stages that turn each integer sample into a float one
// at the same position, and back, can then run in place. Writing
// through either plane changes the other.
func (p *Plane) FloatView() *FPlane {
	data := unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(p.Data))), len(p.Data))
	return &FPlane{Data: data, W: p.W, H: p.H, Stride: p.Stride}
}

// Row returns row r restricted to the plane width.
func (p *FPlane) Row(r int) []float32 { return p.Data[r*p.Stride : r*p.Stride+p.W] }

// At returns the sample at row r, column c.
func (p *FPlane) At(r, c int) float32 { return p.Data[r*p.Stride+c] }

// Set stores v at row r, column c.
func (p *FPlane) Set(r, c int, v float32) { p.Data[r*p.Stride+c] = v }

// Image is a planar image: all components have full resolution (no
// chroma subsampling, as in the paper's RGB BMP workload).
type Image struct {
	W, H  int
	Depth int // bits per sample, e.g. 8
	Comps []*Plane
}

// NewImage allocates an image with n zeroed components.
func NewImage(w, h, n, depth int) *Image {
	img := &Image{W: w, H: h, Depth: depth}
	for i := 0; i < n; i++ {
		img.Comps = append(img.Comps, NewPlane(w, h))
	}
	return img
}

// Clone returns a deep copy of the image.
func (img *Image) Clone() *Image {
	out := &Image{W: img.W, H: img.H, Depth: img.Depth}
	for _, c := range img.Comps {
		out.Comps = append(out.Comps, c.Clone())
	}
	return out
}

// Equal reports whether two images are sample-identical.
func (img *Image) Equal(o *Image) bool {
	if img.W != o.W || img.H != o.H || img.Depth != o.Depth || len(img.Comps) != len(o.Comps) {
		return false
	}
	for i := range img.Comps {
		if !img.Comps[i].Equal(o.Comps[i]) {
			return false
		}
	}
	return true
}

// PSNR computes the peak signal-to-noise ratio in dB between img and a
// reconstruction, over all components. Identical images return +Inf.
func (img *Image) PSNR(rec *Image) float64 {
	// invariant: PSNR is a test/benchmark metric between images the caller
	// constructed with matching geometry; never fed decoder output directly.
	if img.W != rec.W || img.H != rec.H || len(img.Comps) != len(rec.Comps) {
		panic("imgmodel: PSNR geometry mismatch")
	}
	var se float64
	n := 0
	for i := range img.Comps {
		a, b := img.Comps[i], rec.Comps[i]
		for r := 0; r < a.H; r++ {
			ra, rb := a.Row(r), b.Row(r)
			for c := range ra {
				d := float64(ra[c] - rb[c])
				se += d * d
				n++
			}
		}
	}
	if se == 0 {
		return math.Inf(1)
	}
	peak := float64(int(1)<<img.Depth - 1)
	mse := se / float64(n)
	return 10 * math.Log10(peak*peak/mse)
}

// SubImage copies the rectangle (x0, y0, w, h) into a new image —
// used to carve tiles for independent coding.
func (img *Image) SubImage(x0, y0, w, h int) *Image {
	out := NewImage(w, h, len(img.Comps), img.Depth)
	for c, p := range img.Comps {
		for y := 0; y < h; y++ {
			copy(out.Comps[c].Row(y), p.Row(y0 + y)[x0:x0+w])
		}
	}
	return out
}
