package offline

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"mcpaging/internal/core"
)

// This file implements an *exact* variant of Algorithm 1 under the
// model's logical-order semantics — and documents a subtlety of the
// paper's pseudocode it corrects.
//
// Algorithm 1 as written requires every successor configuration to
// contain R(x), the pages pointed at by all sequences at the start of
// the transition. That forbids a fault from evicting a page that another
// core requests in the same timestep. But the model (Section 3) serves
// simultaneous requests "logically in a fixed order": core j's eviction
// happens after cores < j were served and before cores > j are examined,
// so evicting a lower-numbered core's already-hit page — or a
// higher-numbered core's about-to-be-requested page, forcing it to
// miss — is legal, and the simulator accepts such schedules.
//
// The gap is real: for R = {⟨2 2⟩, ⟨100 101 101 100⟩}, K=2, τ=0, the
// pinned DP reports 4 faults while a logical-order schedule achieves 3
// (core 1 evicts page 2 right after core 0's same-step hit). At τ=0 the
// exact optimum must equal Belady's algorithm on the round-robin
// interleaving (the Barve et al. equivalence, package multiapp), which
// the pinned rule misses.
//
// SolveFTFSeq processes the cores of each timestep sequentially inside
// the transition, exactly mirroring the simulator, and is therefore the
// true FTF optimum. SolveFTF remains the paper's Algorithm 1; experiment
// E10 reports where the two differ.

// SolveFTFSeq computes the exact minimum total faults under
// logical-order semantics. Same complexity regime as SolveFTF
// (polynomial in n for constant p and K); disjoint request sets only.
func SolveFTFSeq(inst core.Instance, opts Options) (FTFSolution, error) {
	pr, err := newPrep(inst)
	if err != nil {
		return FTFSolution{}, err
	}
	best, states, err := pr.solveDP("solve FTF seq", opts, true, func(st *ftfNode, add func(*ftfNode)) {
		pr.seqTransition(st, inst.P.K, opts.AllowForcing, false, add)
	})
	if err != nil {
		return FTFSolution{}, err
	}
	if best == nil {
		return FTFSolution{}, fmt.Errorf("solve FTF seq: no feasible schedule")
	}
	return FTFSolution{Faults: best.faults, States: states}, nil
}

// seqTransition enumerates one timestep under logical-order semantics:
// cores are processed in increasing index; each core's hit test sees the
// configuration as modified by lower cores' evictions and fetches; a
// fault's victim may be any page that is neither in flight (a fetch slot
// of the pre-transition positions or a fault earlier in this step) nor
// the faulting page itself. Honest: evictions happen only on capacity
// overflow, unless forcing. With trace, each successor records st as its
// parent and the decisions taken in the step.
func (pr *prep) seqTransition(st *ftfNode, k int, forcing, trace bool, add func(*ftfNode)) {
	// In-flight pages carried over from previous steps (fetch slots).
	carriedInflight := make(map[core.PageID]bool, pr.p)
	for i := 0; i < pr.p; i++ {
		if st.x[i] < pr.ends[i] && !pr.atBoundary(st.x[i]) {
			carriedInflight[pr.pageAt(i, st.x[i])] = true
		}
	}
	nx := make([]int, pr.p)
	copy(nx, st.x)

	type frame struct {
		config   []core.PageID
		inflight map[core.PageID]bool
		faults   int64
		decs     []Decision
	}
	emit := func(config []core.PageID, x []int, f frame) {
		n := &ftfNode{config: config, x: x, faults: f.faults}
		if trace {
			n.parent, n.step = st, f.decs
		}
		add(n)
	}
	var rec func(i int, f frame)
	rec = func(i int, f frame) {
		if i == pr.p {
			nxCopy := make([]int, pr.p)
			copy(nxCopy, nx)
			emit(f.config, nxCopy, f)
			if forcing {
				// Voluntary evictions, equivalent to a sim.Ticker firing
				// at the start of the next step: drop any subset of the
				// pages not in flight at the successor positions.
				stillFetching := make(map[core.PageID]bool, pr.p)
				for i := 0; i < pr.p; i++ {
					if nxCopy[i] < pr.ends[i] && !pr.atBoundary(nxCopy[i]) {
						stillFetching[pr.pageAt(i, nxCopy[i])] = true
					}
				}
				var removable []int
				for idx, q := range f.config {
					if !stillFetching[q] {
						removable = append(removable, idx)
					}
				}
				var drop []int
				var rf func(start int)
				rf = func(start int) {
					for d := start; d < len(removable); d++ {
						drop = append(drop, removable[d])
						emit(removeIdx(f.config, drop), nxCopy, f)
						rf(d + 1)
						drop = drop[:len(drop)-1]
					}
				}
				rf(0)
			}
			return
		}
		xi := st.x[i]
		if xi >= pr.ends[i] {
			nx[i] = xi
			rec(i+1, f)
			return
		}
		pg := pr.pageAt(i, xi)
		if !pr.atBoundary(xi) {
			nx[i] = xi + 1 // fetch in progress
			rec(i+1, f)
			return
		}
		if contains(f.config, pg) {
			// Hit (disjoint sequences: a page in config requested at a
			// boundary cannot be one of this step's in-flight fetches).
			nx[i] = xi + pr.step
			rec(i+1, f)
			nx[i] = xi
			return
		}
		// Fault. Frames never mutate their inflight set, so every branch
		// of this fault shares one.
		nx[i] = xi + 1
		base := insertSorted(f.config, pg)
		inflight := make(map[core.PageID]bool, len(f.inflight)+1)
		maps.Copy(inflight, f.inflight)
		inflight[pg] = true
		next := func(config []core.PageID, victim core.PageID) frame {
			nf := frame{config: config, inflight: inflight, faults: f.faults + 1}
			if trace {
				nf.decs = append(slices.Clip(f.decs), Decision{Core: i, Page: pg, Victim: victim})
			}
			return nf
		}
		if len(base) <= k {
			rec(i+1, next(base, core.NoPage))
		} else {
			for vi, v := range base {
				if v == pg || f.inflight[v] {
					continue
				}
				rec(i+1, next(removeIdx(base, []int{vi}), v))
			}
		}
		nx[i] = xi
	}
	rec(0, frame{config: st.config, inflight: carriedInflight, faults: st.faults})
}

// BruteFTFUnpinned computes the minimum total faults by exhaustive
// search under logical-order semantics: victims may include pages
// requested by other cores in the same timestep (they then miss), which
// the pinned searcher BruteFTF forbids. It cross-validates SolveFTFSeq.
func BruteFTFUnpinned(inst core.Instance) (int64, error) {
	bs, err := newBruteSearcher(inst, allVictims)
	if err != nil {
		return 0, err
	}
	bs.unpinned = true
	bs.step(newBState(bs.p))
	if bs.best == math.MaxInt64 {
		return 0, errNoSchedule
	}
	return bs.best, nil
}
