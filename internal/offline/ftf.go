package offline

import (
	"fmt"

	"mcpaging/internal/core"
)

// FTFSolution is the result of the FINAL-TOTAL-FAULTS dynamic program.
type FTFSolution struct {
	// Faults is the minimum total number of faults over all honest (or,
	// with AllowForcing, all) offline eviction schedules.
	Faults int64
	// States is the number of distinct DP states explored — the
	// empirical counterpart of the O(n^{K+p}(τ+1)^p) bound of Theorem 6.
	States int
}

// ftfNode is one DP node: a cache configuration, a position vector and
// the minimum faults to reach it. When a schedule is traced, the node also
// records the node it was reached from and the decisions of that step.
type ftfNode struct {
	config []core.PageID
	x      []int
	faults int64
	parent *ftfNode
	step   []Decision
}

// solveDP is the bucket driver under the FTF solvers. Transitions strictly
// increase posSum, so nodes are bucketed by it and each bucket is final
// once the driver reaches it. Nodes with equal (config, x) merge, keeping
// the fewest faults (the first one reached wins a tie), and each bucket is
// expanded in sorted key order so exploration is deterministic. With
// prune, a node that cannot beat the best finished node is not expanded.
// solveDP returns the best finished node, nil when none is reachable, and
// the number of states explored; name prefixes the state-limit error.
func (pr *prep) solveDP(name string, opts Options, prune bool, expand func(st *ftfNode, add func(*ftfNode))) (*ftfNode, int, error) {
	maxSum := pr.maxPosSum()
	buckets := make([]map[string]*ftfNode, maxSum+1)
	add := func(n *ftfNode) {
		sum := posSum(n.x)
		if buckets[sum] == nil {
			buckets[sum] = make(map[string]*ftfNode)
		}
		key := stateKey(n.config, n.x)
		if old, ok := buckets[sum][key]; ok {
			if n.faults < old.faults {
				*old = *n
			}
			return
		}
		buckets[sum][key] = n
	}
	add(&ftfNode{x: make([]int, pr.p)})

	var best *ftfNode
	states := 0
	limit := opts.maxStates()
	for sum := 0; sum <= maxSum; sum++ {
		for _, key := range sortedStateKeys(buckets[sum]) {
			st := buckets[sum][key]
			states++
			if states > limit {
				return nil, 0, fmt.Errorf("%s: %w (limit %d)", name, ErrStateLimit, limit)
			}
			if pr.done(st.x) {
				if best == nil || st.faults < best.faults {
					best = st
				}
				continue
			}
			if prune && best != nil && st.faults >= best.faults {
				continue // cannot improve
			}
			expand(st, add)
		}
		buckets[sum] = nil // release as we go; traced nodes live on through parent
	}
	return best, states, nil
}

// SolveFTF computes the minimum total number of faults for serving the
// instance (the paper's Algorithm 1, Theorem 6). The request set must be
// disjoint. Running time is polynomial in the sequence lengths but
// exponential in p and K, so this is only usable on small instances; the
// Options state limit guards against blow-ups.
func SolveFTF(inst core.Instance, opts Options) (FTFSolution, error) {
	pr, err := newPrep(inst)
	if err != nil {
		return FTFSolution{}, err
	}
	best, states, err := pr.solveDP("solve FTF", opts, !opts.NoBranchPruning, func(st *ftfNode, add func(*ftfNode)) {
		tr := pr.advance(st.config, st.x)
		nf := st.faults + int64(len(tr.faults))
		pr.successors(st.config, tr, inst.P.K, opts.AllowForcing, func(nc []core.PageID) {
			add(&ftfNode{config: nc, x: tr.nx, faults: nf})
		})
	})
	if err != nil {
		return FTFSolution{}, err
	}
	if best == nil {
		return FTFSolution{}, fmt.Errorf("solve FTF: no feasible schedule (K too small for pinned pages)")
	}
	return FTFSolution{Faults: best.faults, States: states}, nil
}
