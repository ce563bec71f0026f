package dwt

import "math"

// Subband synthesis L2 gains. Rate control weighs the distortion
// contribution of a coefficient error by the L2 norm of that
// coefficient's synthesis basis vector; quantization step sizes divide
// by the same norms.
//
// The norms have an exact closed form. An interior 1-D basis vector at
// level l is the synthesis filter of its band (g0 low, g1 high)
// upsampled and convolved with g0 once per finer level:
// φ_{k+1} = up2(φ_k) * g0. Its autocorrelation b_k therefore obeys
// b_{k+1}[m] = Σ_n r0[m−2n]·b_k[n], where r0 and r1 are the
// autocorrelations of g0 and g1, and ‖φ_l‖² = b_l[0]. Lag m of b_{k+1}
// reads only lags |n| ≤ (|m|+6)/2 of b_k (r0 spans |j| ≤ 6 for the 9/7,
// 2 for the 5/3), so a window |m| ≤ gainWindow is closed under the
// recursion and iterating it on that window is exact at every depth.
// The 2-D basis of one coefficient is the outer product of two 1-D
// bases, so its norm is the product of two 1-D norms:
// HL = LH = gH·gL, HH = gH², LL = gL².
//
// The taps come from invLine64, the one float64 definition of each
// inverse filter, and the whole table is built once at package init in
// microseconds — BandGain is a plain array lookup.

// Filter selects the wavelet for gain computation.
type Filter int

// Supported filters.
const (
	W53 Filter = iota
	W97
)

// maxGainLevels is the deepest decomposition the gain table covers: the
// COD segment's level cap, which the codestream parser enforces and the
// encoder's MaxLevels never reaches.
const maxGainLevels = 32

// gainWindow bounds the autocorrelation lags carried by the recursion;
// it must cover r1 (|j| ≤ 8 for the 9/7) and stay closed under the
// r0 step (|m| ≤ gainWindow ⇒ |n| ≤ (gainWindow+6)/2 ≤ gainWindow).
const gainWindow = 12

// gains[f][o][l] is the synthesis L2 norm of an orientation-o band at
// level l under filter f; for LL it is the norm of the level-l low band.
var gains = buildGains()

// BandGain returns the synthesis L2 norm for a subband of the given
// orientation at the given level. An interior coefficient's basis does
// not depend on how many levels lie below it, so `levels` does not
// change the result; for orientation LL, level == levels.
func BandGain(f Filter, levels int, o Orient, level int) float64 {
	return gains[f][o][level]
}

func buildGains() (g [2][4][maxGainLevels + 1]float64) {
	for _, f := range []Filter{W53, W97} {
		// Unit low coefficient at 16 and unit high coefficient at 48 of
		// a 64-sample line: both responses sit well inside the line, so
		// they are the bare synthesis filters.
		r0, r1 := synthesisAutocorr(f, 16), synthesisAutocorr(f, 48)
		bL, bH := r0, r1
		g[f][LL][0] = 1
		for l := 1; l <= maxGainLevels; l++ {
			gL, gH := math.Sqrt(bL[gainWindow]), math.Sqrt(bH[gainWindow])
			g[f][LL][l] = gL * gL
			g[f][HL][l] = gH * gL
			g[f][LH][l] = gL * gH
			g[f][HH][l] = gH * gH
			bL, bH = gainStep(&r0, &bL), gainStep(&r0, &bH)
		}
	}
	return g
}

// synthesisAutocorr runs the level-1 inverse on a 64-sample line holding
// one unit coefficient at pos and returns the response's
// autocorrelation at lags -gainWindow..gainWindow.
func synthesisAutocorr(f Filter, pos int) (r [2*gainWindow + 1]float64) {
	var x, tmp [64]float64
	x[pos] = 1
	invLine64(f, x[:], tmp[:])
	for m := -gainWindow; m <= gainWindow; m++ {
		for i := range x {
			if j := i + m; j >= 0 && j < len(x) {
				r[m+gainWindow] += x[i] * x[j]
			}
		}
	}
	return r
}

// gainStep advances the autocorrelation one level coarser:
// next[m] = Σ_n r0[m−2n]·b[n] over the window.
func gainStep(r0, b *[2*gainWindow + 1]float64) (next [2*gainWindow + 1]float64) {
	for m := -gainWindow; m <= gainWindow; m++ {
		for n := -gainWindow; n <= gainWindow; n++ {
			if j := m - 2*n; j >= -gainWindow && j <= gainWindow {
				next[m+gainWindow] += r0[j+gainWindow] * b[n+gainWindow]
			}
		}
	}
	return next
}

// invLine64 is the 1-D inverse in float64: exact lifting inverses with
// the 5/3 floors replaced by their linear counterparts.
func invLine64(f Filter, x []float64, tmp []float64) {
	n := len(x)
	if n <= 1 {
		return
	}
	nl, nh := (n+1)/2, n/2
	low, high := tmp[:nl], tmp[nl:n]
	copy(low, x[:nl])
	copy(high, x[nl:n])
	cd := func(k int) float64 {
		if k < 0 {
			k = 0
		}
		if k > nh-1 {
			k = nh - 1
		}
		return high[k]
	}
	ce := func(k int) float64 {
		if k > nl-1 {
			k = nl - 1
		}
		return low[k]
	}
	switch f {
	case W53:
		for k := 0; k < nl; k++ {
			low[k] -= (cd(k-1) + cd(k)) / 4
		}
		for k := 0; k < nh; k++ {
			high[k] += (ce(k) + ce(k+1)) / 2
		}
	case W97:
		for k := range low {
			low[k] *= K97
		}
		for k := range high {
			high[k] *= InvK97
		}
		for k := 0; k < nl; k++ {
			low[k] -= Delta97 * (cd(k-1) + cd(k))
		}
		for k := 0; k < nh; k++ {
			high[k] -= Gamma97 * (ce(k) + ce(k+1))
		}
		for k := 0; k < nl; k++ {
			low[k] -= Beta97 * (cd(k-1) + cd(k))
		}
		for k := 0; k < nh; k++ {
			high[k] -= Alpha97 * (ce(k) + ce(k+1))
		}
	}
	for k := 0; k < nl; k++ {
		x[2*k] = low[k]
	}
	for k := 0; k < nh; k++ {
		x[2*k+1] = high[k]
	}
}
