package workload

import (
	"math"
	"math/rand"
)

// The Zipf parameter box Spec.Validate accepts. Inside it every value
// of h and hinv below is a finite normal float64 (the largest exponent
// reached is (s−1)·ln(v+Pages) ≤ 31·ln(2^17) ≈ 365, far from the ≈708
// where float64 underflows), so the rejection loop accepts at the rate
// of the exact sampler and terminates.
const (
	ZipfMinS float64 = 1.0001
	ZipfMaxS float64 = 32
	ZipfMinV float64 = 1
	ZipfMaxV float64 = 1 << 16
)

// zipfSampler draws the Zipf variates math/rand's Zipf.Uint64 returns
// from the same *rand.Rand stream, bit for bit, consuming exactly one
// Float64 per rejection-loop iteration as the stdlib does.
//
// math/rand maps r = Float64() through ur = hxm + r·(hx0−hxm) and
// x = hinv(ur), takes k = floor(x+0.5), and accepts k when k−x ≤ s (the
// squeeze) or when ur ≥ h(k+0.5) − (k+v)^−q. Each step costs an exp and
// a log. In exact arithmetic x falls as r grows, so [0,1) splits into
// segments on which k and the squeeze verdict are constant; their
// boundaries are where x crosses k+0.5 or k−s. The table stores each
// boundary as a closed r-interval wide enough to hold every r whose
// rounded x could land on the other side of it (the rounding bound is
// in zipfSampler.boundary). A draw between two intervals resolves by table
// lookup: either the squeeze accepts k, or ur — one multiply-add — is
// compared with the stdlib's own threshold for k, computed once on
// first use. A draw inside an interval, or outside the covered range,
// runs the stdlib's iteration verbatim.
//
// A candidate the stdlib would return outside [0, imax] is redrawn.
// Such a candidate arises only from rounding, for r inside the
// uncertainty interval at either end of [0,1) (x near imax+0.5 or
// −0.5), where math/rand's result would have been out of range and
// indexed past the page permutation; everywhere else the two streams
// are identical.
type zipfSampler struct {
	// The stdlib's constants, computed by NewZipf's exact expressions.
	imax, v, q, s, oneminusQ, oneminusQinv, hxm, hx0minusHxm float64

	// edges holds the sorted uncertainty-interval bounds, ending in a
	// +Inf sentinel; codes[i] describes the segment (edges[i−1],
	// edges[i]): zipfFallback, or k<<1 | squeeze. guide[b] is the number
	// of edges ≤ b/len(guide). All three are nil when the table is not
	// built.
	edges []float64
	codes []int32
	guide []int32
	m     float64 // len(guide), as a float
	// thresh[k] caches h(k+0.5) − (k+v)^−q; 0 means not yet computed
	// (a computed threshold is negative).
	thresh []float64
}

// zipfFallback marks a segment that runs the stdlib iteration.
const zipfFallback = -1

// zipfTableMinDraws is the draws per page from which the table is
// built. Building costs two exp+log pairs per page and saves about
// three quarters of a stdlib draw (one exp+log pair and more) per
// draw, so it pays for itself from about 4 draws per page; 8 keeps a
// margin.
const zipfTableMinDraws = 8

// newZipfSampler mirrors rand.NewZipf(·, s, v, imax). The table is built
// only when draws is at least zipfTableMinDraws per value; otherwise
// every draw runs the stdlib iteration.
func newZipfSampler(s, v float64, imax uint64, draws int) *zipfSampler {
	z := &zipfSampler{imax: float64(imax), v: v, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	if float64(draws) >= zipfTableMinDraws*(z.imax+1) {
		z.build()
	}
	return z
}

func (z *zipfSampler) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipfSampler) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// threshold is the stdlib's acceptance threshold for candidate k.
func (z *zipfSampler) threshold(k float64) float64 {
	return z.h(k+0.5) - math.Exp(-math.Log(k+z.v)*z.q)
}

// iterate runs one stdlib loop iteration on r: the candidate k and
// whether it is accepted.
func (z *zipfSampler) iterate(r float64) (float64, bool) {
	ur := z.hxm + r*z.hx0minusHxm
	x := z.hinv(ur)
	k := math.Floor(x + 0.5)
	if k-x <= z.s {
		return k, true
	}
	return k, ur >= z.threshold(k)
}

// next returns the next variate, drawing from rng.
//
//mcpaging:hotpath
func (z *zipfSampler) next(rng *rand.Rand) uint64 {
	for {
		r := rng.Float64()
		if z.guide != nil {
			i := z.guide[int(r*z.m)]
			for z.edges[i] <= r {
				i++
			}
			if c := z.codes[i]; c != zipfFallback {
				k := c >> 1
				if c&1 != 0 {
					return uint64(k)
				}
				th := z.thresh[k]
				if th == 0 {
					th = z.threshold(float64(k))
					z.thresh[k] = th
				}
				if z.hxm+r*z.hx0minusHxm >= th {
					return uint64(k)
				}
				continue
			}
		}
		if k, ok := z.iterate(r); ok && k >= 0 && k <= z.imax {
			return uint64(k)
		}
	}
}

// build lays out the segment table. It leaves the table nil when the
// constants are degenerate (non-finite, or a non-falling ur) or rounding
// is too coarse for the intervals to be narrow; Validate's parameter box
// rules all of these out.
func (z *zipfSampler) build() {
	if !(z.hx0minusHxm < 0) {
		return
	}
	n := int(z.imax) + 1
	// Every v+|beta|+1 and v+beta lies in [0.5, v+imax+2].
	lnMax := math.Log(z.v+z.imax+2) + 1
	edges := make([]float64, 0, 4*n+3)
	codes := make([]int32, 0, 4*n+3)
	// zone appends the uncertainty interval of one boundary and, before
	// it, the segment that separates it from the previous interval. An
	// interval that overlaps the previous one is merged into it, and the
	// segment between them (empty or unresolvable) is dropped.
	zone := func(beta float64, seg int32) bool {
		lo, hi, ok := z.boundary(beta, lnMax)
		if !ok {
			return false
		}
		if l := len(edges); l > 0 && lo <= edges[l-1] {
			edges[l-1] = math.Max(edges[l-1], hi)
			return true
		}
		codes = append(codes, seg, zipfFallback)
		edges = append(edges, lo, hi)
		return true
	}
	// Boundaries in falling x (rising r): imax+0.5, then per k the
	// squeeze boundary k−s (when it lies inside k's rounding interval)
	// and the rounding boundary k−0.5. Above imax+0.5 and below −0.5 the
	// candidate is out of range, so those ends stay fallback.
	if !zone(z.imax+0.5, zipfFallback) {
		return
	}
	squeezed := z.s > -0.5 && z.s < 0.5
	whole := int32(0) // squeeze verdict of a k-interval without a squeeze boundary
	if z.s >= 0.5 {
		whole = 1
	}
	for k := n - 1; k >= 0; k-- {
		kf := float64(k)
		if squeezed {
			if !zone(kf-z.s, int32(k)<<1|1) || !zone(kf-0.5, int32(k)<<1) {
				return
			}
		} else if !zone(kf-0.5, int32(k)<<1|whole) {
			return
		}
	}
	codes = append(codes, zipfFallback)
	edges = append(edges, math.Inf(1))

	m := 1
	for m < len(edges) {
		m <<= 1
	}
	guide := make([]int32, m)
	i := 0
	for b := range guide {
		lo := float64(b) / float64(m)
		for edges[i] <= lo {
			i++
		}
		guide[b] = int32(i)
	}
	z.edges, z.codes, z.guide, z.m = edges, codes, guide, float64(m)
	z.thresh = make([]float64, n)
}

// boundary returns a closed r-interval holding every r for which the
// stdlib's rounded x(r) could fall on either side of the decision
// boundary beta (a rounding point k+0.5 or a squeeze point k−s).
//
// The rounding bound: ur = hxm + r·(hx0−hxm) carries at most 2 units
// of roundoff u = 2^−53, oneminusQ·ur 3; log adds under one ulp, and
// the product with 1/(1−q) multiplies the absolute error of the log by
// |1/(1−q)|; exp adds under one ulp and the final −v half an ulp of x.
// So |x_fp(r) − x(r)| ≤ (v+|x|+1)·u·(3|1/(1−q)| + 3|ln(v+|x|+1)| + 4),
// with x(r) the exact-arithmetic value over the same float constants;
// lnMax bounds every logarithm in it. The interval covers 256 times
// that bound in x, plus 2^−48·(|beta|+1)
// for the rounding of x+0.5 and of k−x, and maps it to r through
// |dr/dx| = (v+x)^−q / |hx0−hxm| (doubled for its variation across the
// interval). The map's own evaluation error is covered by a second
// 256-fold roundoff bound on h(beta) − hxm.
func (z *zipfSampler) boundary(beta, lnMax float64) (lo, hi float64, ok bool) {
	const u = 0x1p-53
	a := z.v + math.Abs(beta) + 1
	w := 256*a*u*(3*math.Abs(z.oneminusQinv)+3*lnMax+4) + 0x1p-48*(math.Abs(beta)+1)
	vb := z.v + beta
	if !(w <= vb*0x1p-20) {
		return 0, 0, false
	}
	hb := z.h(beta)
	c := -z.hx0minusHxm
	r := (hb - z.hxm) / z.hx0minusHxm
	slope := math.Abs(hb*z.oneminusQ) / vb / c // (v+beta)^−q / |hx0−hxm|
	lnB := math.Abs(z.oneminusQ) * lnMax       // bounds |ln (v+beta)^(1−q)|
	eta := 256 * u * ((math.Abs(hb)+math.Abs(z.hxm))*(8+4*lnB) + math.Abs(hb-z.hxm)) / c
	d := 2*w*slope + eta + 4*u
	if math.IsNaN(r+d) || math.IsInf(r+d, 0) {
		return 0, 0, false
	}
	return r - d, r + d, true
}
