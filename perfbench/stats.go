package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"j2kcell"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

var (
	tabCastagnoli = crc32.MakeTable(crc32.Castagnoli)
	tabIEEE       = crc32.MakeTable(crc32.IEEE)
)

// digest fingerprints an image's geometry and live samples (row padding
// excluded) as two independent CRC-32s. It is how decode results are
// compared with references computed in another decode or another
// process.
func digest(img *j2kcell.Image) string {
	if img == nil {
		return "nil"
	}
	c, e := uint32(0), uint32(0)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(img.W))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(img.H))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(img.Depth))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(img.Comps)))
	c = crc32.Update(c, tabCastagnoli, hdr[:])
	e = crc32.Update(e, tabIEEE, hdr[:])
	var buf []byte
	for _, p := range img.Comps {
		if p.W != img.W || p.H != img.H {
			return "geometry"
		}
		if cap(buf) < 4*p.W {
			buf = make([]byte, 4*p.W)
		}
		buf = buf[:4*p.W]
		for y := 0; y < p.H; y++ {
			for x, v := range p.Row(y) {
				binary.LittleEndian.PutUint32(buf[4*x:], uint32(v))
			}
			c = crc32.Update(c, tabCastagnoli, buf)
			e = crc32.Update(e, tabIEEE, buf)
		}
	}
	return fmt.Sprintf("%08x%08x", c, e)
}

// psnr is the PSNR of rec against ref in dB, or 0 when the geometry
// differs (a wrong output, never a crash).
func psnr(ref, rec *j2kcell.Image) float64 {
	if rec == nil || ref.W != rec.W || ref.H != rec.H || len(ref.Comps) != len(rec.Comps) {
		return 0
	}
	for _, p := range rec.Comps {
		if p.W != ref.W || p.H != ref.H {
			return 0
		}
	}
	return ref.PSNR(rec)
}

// sameImage reports whether rec is sample-identical to ref, tolerating a
// nil or misshapen rec.
func sameImage(ref, rec *j2kcell.Image) bool {
	return rec != nil && digest(ref) == digest(rec)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the cumulative bytes allocated on the heap by this
// process (no stop-the-world, unlike runtime.ReadMemStats).
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// cpuTimeNS is the user plus system CPU time this process has used, in
// nanoseconds, over all its threads.
func cpuTimeNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package
// does not name.
const rusageThread = 1

// threadCPUNS is the CPU time the calling OS thread has used, in
// nanoseconds. A caller measuring a stretch of code locks its goroutine
// to the thread around it.
func threadCPUNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSKB is this process's peak resident set so far (VmHWM) in KiB,
// from procfs, or 0 where procfs does not report it.
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// residentMB is this process's current resident set in MB, from procfs.
func residentMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages) * float64(os.Getpagesize()) / 1e6, true
}

// kibToMB converts a Linux rusage size (KiB) to MB.
func kibToMB(kib int64) float64 { return float64(kib) * 1024 / 1e6 }
