// Package mattson computes per-core miss curves and optimal static cache
// partitions.
//
// For a single core, the miss count of LRU and of Belady's OPT as a
// function of cache size is obtained in one pass with Mattson's priority
// stack algorithm (Mattson et al., IBM Systems Journal 1970). Both are
// stack algorithms: a cache of size k always holds the top k entries of
// one stack, so an access misses in a cache of size k exactly when the
// page sits deeper than k. The stack is ordered by recency for LRU and by
// next use for OPT.
//
// Because a fault only delays the faulting core's own sequence, the
// per-core fault count of a *static partition* strategy is independent of
// τ and of the other cores. Summing per-core curve points therefore
// predicts the exact fault count of sP^B_A for the corresponding per-part
// policy, and the best static partition (the paper's sP^OPT baselines in
// Lemma 2 and Theorem 1) is found by dynamic programming over the curves.
package mattson

import (
	"fmt"
	"math"
	"slices"

	"mcpaging/internal/core"
)

// stackEntry is one slot of the priority stack.
type stackEntry struct {
	page core.PageID
	rank int64 // eviction rank: among resident pages the largest goes first
}

// stackCurve runs Mattson's priority-stack pass over seq and returns the
// miss counts for cache sizes 0..min(kmax, distinct pages); the curve is
// flat beyond its last point. rank(i) is the eviction rank of seq[i] from
// access i until the page's next access.
//
// The accessed page goes to the top and the entry it displaces sinks. At
// each deeper slot, of the sinking entry and the slot's entry the one with
// the larger rank — the page a cache of that size evicts — sinks on and
// the other keeps the slot. The sinking entry stops in the accessed page's
// old slot or falls off below kmax, so the stack holds min(kmax, distinct)
// entries.
func stackCurve(seq core.Sequence, kmax int, rank func(i int) int64) []int64 {
	if kmax < 0 {
		return nil
	}
	var stack []stackEntry
	var hits []int64 // hits[d]: accesses found at depth d+1
	for i, p := range seq {
		carry := stackEntry{page: p, rank: rank(i)}
		d := 0
		for ; d < len(stack) && stack[d].page != p; d++ {
			if d == 0 || stack[d].rank > carry.rank {
				stack[d], carry = carry, stack[d]
			}
		}
		switch {
		case d < len(stack):
			stack[d] = carry
			hits[d]++
		case len(stack) < kmax:
			stack = append(stack, carry)
			hits = append(hits, 0)
		}
	}
	curve := make([]int64, len(stack)+1)
	curve[0] = int64(len(seq))
	for d, h := range hits {
		curve[d+1] = curve[d] - h
	}
	return curve
}

// lruCurve is the LRU miss curve up to min(kmax, distinct pages): the
// least recently used page has the largest rank.
func lruCurve(seq core.Sequence, kmax int) []int64 {
	return stackCurve(seq, kmax, func(i int) int64 { return -int64(i) })
}

// optCurve is the Belady miss curve up to min(kmax, distinct pages): the
// page used furthest in the future has the largest rank. Ties occur only
// among pages never used again and cannot change a miss count.
func optCurve(seq core.Sequence, kmax int) []int64 {
	next := make([]int64, len(seq))
	last := make(map[core.PageID]int)
	for i := len(seq) - 1; i >= 0; i-- {
		next[i] = math.MaxInt64
		if j, ok := last[seq[i]]; ok {
			next[i] = int64(j)
		}
		last[seq[i]] = i
	}
	return stackCurve(seq, kmax, func(i int) int64 { return next[i] })
}

// extend pads a curve flat to sizes 0..kmax.
func extend(curve []int64, kmax int) []int64 {
	if len(curve) == 0 || len(curve) > kmax {
		return curve
	}
	flat := curve[len(curve)-1]
	curve = slices.Grow(curve, kmax+1-len(curve))
	for len(curve) <= kmax {
		curve = append(curve, flat)
	}
	return curve
}

// LRUCurve returns the LRU miss counts for cache sizes 0..kmax for one
// sequence: curve[k] is the number of misses with a dedicated LRU cache
// of k pages. curve[0] is defined as len(seq).
func LRUCurve(seq core.Sequence, kmax int) []int64 { return extend(lruCurve(seq, kmax), kmax) }

// OPTCurve returns Belady miss counts for sizes 0..kmax. For a single
// sequence (no cross-core alignment effects) Belady is optimal for any τ.
func OPTCurve(seq core.Sequence, kmax int) []int64 { return extend(optCurve(seq, kmax), kmax) }

// Partition is a static split of K cells over the cores, with the total
// fault count the per-core curves predict for it.
type Partition struct {
	Sizes  []int
	Faults int64
}

// Optimal finds the static partition minimizing the summed curve values:
// sizes[j] ∈ [min_j, K], Σ sizes[j] ≤ K, minimizing Σ curves[j][sizes[j]].
// active[j] forces size ≥ 1 for cores with requests (the paper's rule
// that every active core gets at least one cell). Curves shorter than K+1
// are treated as flat beyond their last point.
//
// Ties go to the smallest total, so totals beyond the point where every
// curve is flat cannot win: the DP runs over min(K, Σ(len(curves[j])−1))
// cells and costs O(p·min(K, Σ len)²), whatever K the caller claims.
func Optimal(curves [][]int64, k int, active []bool) (Partition, error) {
	p := len(curves)
	if p == 0 {
		return Partition{}, fmt.Errorf("mattson: no cores")
	}
	if len(active) != p {
		return Partition{}, fmt.Errorf("mattson: active mask has %d entries for %d cores", len(active), p)
	}
	if k < 0 {
		return Partition{}, fmt.Errorf("mattson: negative K=%d", k)
	}
	total := 0
	for j, c := range curves {
		if active[j] && len(c) < 2 {
			total++
		} else {
			total += len(c) - 1
		}
	}
	kk := min(k, total)
	at := func(j, s int) int64 {
		c := curves[j]
		if s >= len(c) {
			s = len(c) - 1
		}
		return c[s]
	}
	const inf = int64(math.MaxInt64) / 4
	// dp[k'] after processing j cores; choice[j][k'] = size given to core j.
	dp := make([]int64, kk+1)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	choice := make([][]int32, p)
	for j := 0; j < p; j++ {
		ndp := make([]int64, kk+1)
		for i := range ndp {
			ndp[i] = inf
		}
		choice[j] = make([]int32, kk+1)
		minS := 0
		if active[j] {
			minS = 1
		}
		for used := 0; used <= kk; used++ {
			if dp[used] >= inf {
				continue
			}
			for s := minS; used+s <= kk; s++ {
				v := dp[used] + at(j, s)
				if v < ndp[used+s] {
					ndp[used+s] = v
					choice[j][used+s] = int32(s)
				}
			}
		}
		dp = ndp
	}
	// Best over any total ≤ K (extra cells never hurt but curves are
	// non-increasing, so the optimum uses them; still, scan all).
	bestK, best := -1, inf
	for used := 0; used <= kk; used++ {
		if dp[used] < best {
			best, bestK = dp[used], used
		}
	}
	if bestK < 0 {
		return Partition{}, fmt.Errorf("mattson: no feasible partition of K=%d over %d cores", k, p)
	}
	sizes := make([]int, p)
	for j := p - 1; j >= 0; j-- {
		s := int(choice[j][bestK])
		sizes[j] = s
		bestK -= s
	}
	return Partition{Sizes: sizes, Faults: best}, nil
}

// ActiveMask returns the per-core activity mask of a request set.
func ActiveMask(r core.RequestSet) []bool {
	m := make([]bool, len(r))
	for j, s := range r {
		m[j] = len(s) > 0
	}
	return m
}

// OptimalLRU computes the best static partition for per-part LRU on the
// request set — the paper's sP^OPT_LRU baseline (Lemma 2) — together with
// its predicted fault count (exact for disjoint request sets).
func OptimalLRU(r core.RequestSet, k int) (Partition, error) { return optimalBy(r, k, lruCurve) }

// OptimalOPT computes the best static partition for per-part Belady
// eviction — the paper's sP^OPT_OPT baseline (Theorem 1) — with its
// predicted fault count (exact for disjoint request sets).
func OptimalOPT(r core.RequestSet, k int) (Partition, error) { return optimalBy(r, k, optCurve) }

// optimalBy runs Optimal over each core's curve, computed only up to
// min(k, that core's distinct pages): beyond that point it is flat.
func optimalBy(r core.RequestSet, k int, curve func(core.Sequence, int) []int64) (Partition, error) {
	curves := make([][]int64, len(r))
	for j, s := range r {
		curves[j] = curve(s, k)
	}
	return Optimal(curves, k, ActiveMask(r))
}
