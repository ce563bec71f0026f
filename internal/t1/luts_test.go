package t1

import (
	"testing"

	"j2kcell/internal/dwt"
	"j2kcell/internal/workload"
)

// TestLUTZeroCodingExhaustive checks every zero-coding LUT entry against
// the oracle: for each of the 256 neighbor-significance patterns, build
// the 3×3 neighborhood explicitly in the byte-flag oracle and compare
// its recomputed context with the table entry for every orientation.
func TestLUTZeroCodingExhaustive(t *testing.T) {
	for _, orient := range []dwt.Orient{dwt.LL, dwt.HL, dwt.LH, dwt.HH} {
		for idx := 0; idx < 256; idx++ {
			o := newOracle(3, 3, orient)
			// Flag-word neighbor bit order: N,S,W,E,NW,NE,SW,SE.
			nbr := [8][2]int{{1, 0}, {1, 2}, {0, 1}, {2, 1}, {0, 0}, {2, 0}, {0, 2}, {2, 2}}
			for b, xy := range nbr {
				if idx>>uint(b)&1 != 0 {
					o.flags[o.fidx(xy[0], xy[1])] |= oSig
				}
			}
			want := o.zcContext(o.fidx(1, 1))
			if got := int(lutZC[zcTabFor(orient)][idx]); got != want {
				t.Fatalf("%v pattern %08b: LUT context %d, oracle %d", orient, idx, got, want)
			}
		}
	}
}

// TestLUTSignCodingExhaustive checks every sign-coding LUT entry: all
// 256 (significance, sign) patterns of the four H/V neighbors against
// the oracle's recomputed context and XOR bit.
func TestLUTSignCodingExhaustive(t *testing.T) {
	nbr := [4][2]int{{1, 0}, {1, 2}, {0, 1}, {2, 1}} // N,S,W,E
	for idx := 0; idx < 256; idx++ {
		o := newOracle(3, 3, dwt.LL)
		for b, xy := range nbr {
			fi := o.fidx(xy[0], xy[1])
			if idx>>uint(b)&1 != 0 {
				o.flags[fi] |= oSig
			}
			if idx>>uint(b+4)&1 != 0 {
				o.flags[fi] |= oNeg
			}
		}
		wantCtx, wantXor := o.scContext(o.fidx(1, 1))
		v := lutSC[idx]
		if got, gotXor := ctxSC+int(v&7), v>>3; got != wantCtx || gotXor != wantXor {
			t.Fatalf("pattern %08b: LUT (%d,%d), oracle (%d,%d)", idx, got, gotXor, wantCtx, wantXor)
		}
	}
}

// TestFlagWordsMatchOracle drives the incremental flag-word coder and
// the recompute-everything oracle through identical randomized
// significance/refinement histories and asserts that every context the
// passes could ask for — zero coding, sign coding, magnitude
// refinement — agrees at every coefficient after every step.
func TestFlagWordsMatchOracle(t *testing.T) {
	rng := workload.NewRNG(77)
	for trial := 0; trial < 40; trial++ {
		w := rng.Intn(20) + 1
		h := rng.Intn(20) + 1
		orient := dwt.Orient(rng.Intn(4))
		c := newCoder(w, h, orient, nil)
		o := newOracle(w, h, orient)

		check := func(step int) {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					ci, oi := c.fidx(x, y), o.fidx(x, y)
					if got, want := c.zcContext(ci), o.zcContext(oi); got != want {
						t.Fatalf("trial %d step %d (%d,%d) %v: zc LUT %d, oracle %d", trial, step, x, y, orient, got, want)
					}
					gotSC, gotXor := c.scContext(ci)
					wantSC, wantXor := o.scContext(oi)
					if gotSC != wantSC || gotXor != wantXor {
						t.Fatalf("trial %d step %d (%d,%d): sc LUT (%d,%d), oracle (%d,%d)", trial, step, x, y, gotSC, gotXor, wantSC, wantXor)
					}
					if got, want := c.mrContext(ci), o.mrContext(oi); got != want {
						t.Fatalf("trial %d step %d (%d,%d): mr LUT %d, oracle %d", trial, step, x, y, got, want)
					}
				}
			}
		}

		check(-1)
		steps := rng.Intn(2*w*h) + 1
		for s := 0; s < steps; s++ {
			x, y := rng.Intn(w), rng.Intn(h)
			ci, oi := c.fidx(x, y), o.fidx(x, y)
			switch rng.Intn(3) {
			case 0, 1: // become significant with a random sign
				if c.flags[ci]&fwSig != 0 {
					continue
				}
				neg := rng.Intn(2) == 1
				if neg {
					c.flags[ci] |= fwNeg
					o.flags[oi] |= oNeg
				}
				c.setSig(ci, neg)
				o.flags[oi] |= oSig
			case 2: // refine an already significant coefficient
				if c.flags[ci]&fwSig == 0 {
					continue
				}
				c.flags[ci] |= fwRefined
				o.flags[oi] |= oRefined
			}
			check(s)
		}
		c.release()
	}
}

// TestVisitStampNoCollision pins the stamp encoding the passes rely on:
// distinct planes produce distinct stamps for every legal plane, and
// the stamp field cannot leak into any flag bit the contexts read.
func TestVisitStampNoCollision(t *testing.T) {
	seen := map[uint32]bool{}
	for p := 0; p < 32; p++ {
		vp := visitStamp(p)
		if vp&^fwVisitMask != 0 {
			t.Fatalf("stamp for plane %d overflows the visit field: %#x", p, vp)
		}
		if vp == 0 || seen[vp] {
			t.Fatalf("stamp for plane %d not unique: %#x", p, vp)
		}
		seen[vp] = true
	}
	if fwVisitMask&(fwSig|fwRefined|fwNeg|fwSigNbr|fwNegN|fwNegS|fwNegW|fwNegE) != 0 {
		t.Fatal("visit field overlaps context-visible bits")
	}
}
