package offline

import (
	"maps"
	"math"

	"mcpaging/internal/core"
	"mcpaging/internal/sim"
)

// This file implements exhaustive reference solvers that mirror the
// simulator's timing rules event by event and branch over eviction
// choices. They are exponential in the number of faults and exist to
// cross-validate the dynamic programs (and each other) on small
// instances, and to verify Theorem 5: restricting victims to the
// furthest-in-the-future page of *some* sequence preserves optimality.
//
// Victim candidates exclude "pinned" pages: pages requested by any core
// in the current timestep and pages whose fetch is in flight. This is the
// successor rule of Algorithms 1 and 2 (C′ ⊇ R(x)); experiments confirm
// it does not change the optimum (see TestPinnedEvictionNeutral).

// bstate is the exhaustive engine's mutable state.
type bstate struct {
	idx    []int
	next   []int64
	ready  map[core.PageID]int64 // cached pages → fetch-completion time
	faults []int64
}

func newBState(p int) *bstate {
	return &bstate{
		idx:    make([]int, p),
		next:   make([]int64, p),
		ready:  make(map[core.PageID]int64),
		faults: make([]int64, p),
	}
}

func (s *bstate) clone() *bstate {
	c := &bstate{
		idx:    append([]int(nil), s.idx...),
		next:   append([]int64(nil), s.next...),
		ready:  make(map[core.PageID]int64, len(s.ready)),
		faults: append([]int64(nil), s.faults...),
	}
	maps.Copy(c.ready, s.ready)
	return c
}

func (s *bstate) total() int64 {
	var t int64
	for _, f := range s.faults {
		t += f
	}
	return t
}

// victimMode selects the candidate set branched over at each fault.
type victimMode int

const (
	// allVictims branches over every evictable page (the full honest
	// search space).
	allVictims victimMode = iota
	// fitfVictims branches only over, per sequence, the evictable page
	// of that sequence whose next request is furthest in the future —
	// the Theorem 5 restriction.
	fitfVictims
)

// bruteSearcher carries the immutable context of one search.
type bruteSearcher struct {
	inst core.Instance
	p    int
	tau  int64
	mode victimMode
	// unpinned lifts the same-step pinning rule: victims may include
	// pages requested by other cores in the current timestep
	// (logical-order semantics; see ftfseq.go).
	unpinned bool
	owner    map[core.PageID]int
	// occ[p] = sorted occurrence indices of page p in its owning core.
	occ map[core.PageID][]int

	best int64

	// PIF mode (checkT true): succeed as soon as time reaches T with all
	// bounds respected.
	checkT bool
	T      int64
	bounds []int64
	found  bool

	// Witness recording: when enabled, the decision path of the first
	// accepted schedule (or the fault-optimal one in FTF mode) is kept.
	record  bool
	path    []Decision
	witness []Decision
}

func newBruteSearcher(inst core.Instance, mode victimMode) (*bruteSearcher, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if !inst.R.Disjoint() {
		return nil, sim.ErrNotDisjoint
	}
	bs := &bruteSearcher{
		inst:  inst,
		p:     inst.R.NumCores(),
		tau:   int64(inst.P.Tau),
		mode:  mode,
		owner: inst.R.Owner(),
		occ:   make(map[core.PageID][]int),
		best:  math.MaxInt64,
	}
	for _, seq := range inst.R {
		for i, pg := range seq {
			bs.occ[pg] = append(bs.occ[pg], i)
		}
	}
	return bs, nil
}

// nextUseOf returns the next occurrence index of page pg in its owning
// sequence at or after that core's current position, or MaxInt64.
func (bs *bruteSearcher) nextUseOf(s *bstate, pg core.PageID) int64 {
	c := bs.owner[pg]
	for _, i := range bs.occ[pg] {
		if i >= s.idx[c] {
			return int64(i)
		}
	}
	return math.MaxInt64
}

// step finds the next service time and runs the per-core service loop.
func (bs *bruteSearcher) step(s *bstate) {
	if bs.found {
		return
	}
	t := int64(math.MaxInt64)
	for c := 0; c < bs.p; c++ {
		if s.idx[c] < len(bs.inst.R[c]) && s.next[c] < t {
			t = s.next[c]
		}
	}
	if t == int64(math.MaxInt64) {
		// All sequences served.
		if bs.checkT {
			bs.found = true
			bs.keepWitness()
		} else if s.total() < bs.best {
			bs.best = s.total()
			bs.keepWitness()
		}
		return
	}
	if bs.checkT && t >= bs.T {
		// The checkpoint passed with every bound respected.
		bs.found = true
		bs.keepWitness()
		return
	}
	// Pinned pages this timestep: every page requested at time t.
	pinned := make(map[core.PageID]bool, bs.p)
	for c := 0; c < bs.p; c++ {
		if s.idx[c] < len(bs.inst.R[c]) && s.next[c] == t {
			pinned[bs.inst.R[c][s.idx[c]]] = true
		}
	}
	bs.serve(s, t, 0, pinned)
}

// serve handles cores startC.. at time t, branching at faults.
func (bs *bruteSearcher) serve(s *bstate, t int64, startC int, pinned map[core.PageID]bool) {
	if bs.found {
		return
	}
	if !bs.checkT && s.total() >= bs.best {
		return
	}
	for c := startC; c < bs.p; c++ {
		if s.idx[c] >= len(bs.inst.R[c]) || s.next[c] != t {
			continue
		}
		pg := bs.inst.R[c][s.idx[c]]
		if r, ok := s.ready[pg]; ok && r <= t {
			// Hit.
			s.idx[c]++
			s.next[c] = t + 1
			continue
		}
		// Fault (the disjoint assumption rules out in-flight joins).
		s.faults[c]++
		if bs.checkT && s.faults[c] > bs.bounds[c] {
			return // bound already blown before the checkpoint
		}
		s.idx[c]++
		s.next[c] = t + bs.tau + 1
		if len(s.ready) < bs.inst.P.K {
			s.ready[pg] = t + bs.tau + 1
			if bs.record {
				bs.path = append(bs.path, Decision{Core: c, Page: pg, Victim: core.NoPage})
			}
			continue
		}
		// Branch over victims.
		for _, v := range bs.victims(s, t, pinned) {
			ns := s.clone()
			delete(ns.ready, v)
			ns.ready[pg] = t + bs.tau + 1
			plen := len(bs.path)
			if bs.record {
				bs.path = append(bs.path, Decision{Core: c, Page: pg, Victim: v})
			}
			bs.serve(ns, t, c+1, pinned)
			if bs.record {
				bs.path = bs.path[:plen]
			}
			if bs.found {
				return
			}
		}
		return // all continuations explored in branches
	}
	bs.step(s)
}

// victims returns the candidate eviction set at time t.
func (bs *bruteSearcher) victims(s *bstate, t int64, pinned map[core.PageID]bool) []core.PageID {
	var resident []core.PageID
	for pg, r := range s.ready {
		if r <= t && (bs.unpinned || !pinned[pg]) {
			resident = append(resident, pg)
		}
	}
	switch bs.mode {
	case fitfVictims:
		// Per owning sequence, keep only the furthest-in-the-future page.
		bestOf := make(map[int]core.PageID)
		bestNU := make(map[int]int64)
		for _, pg := range resident {
			o := bs.owner[pg]
			nu := bs.nextUseOf(s, pg)
			cur, ok := bestOf[o]
			if !ok || nu > bestNU[o] || (nu == bestNU[o] && pg < cur) {
				bestOf[o], bestNU[o] = pg, nu
			}
		}
		out := make([]core.PageID, 0, len(bestOf))
		for o := 0; o < bs.p; o++ {
			if pg, ok := bestOf[o]; ok {
				out = append(out, pg)
			}
		}
		return out
	default:
		sortPages(resident)
		return resident
	}
}

func sortPages(ps []core.PageID) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j] < ps[j-1]; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// BruteFTF computes the minimum total faults by exhaustive search over
// all honest eviction schedules. Exponential; small instances only.
func BruteFTF(inst core.Instance) (int64, error) {
	bs, err := newBruteSearcher(inst, allVictims)
	if err != nil {
		return 0, err
	}
	bs.step(newBState(bs.p))
	if bs.best == math.MaxInt64 {
		return 0, errNoSchedule
	}
	return bs.best, nil
}

// BruteFTFFITF computes the minimum total faults over schedules that, on
// every fault, evict the furthest-in-the-future page of some sequence —
// the restricted family Theorem 5 proves contains an optimal schedule.
func BruteFTFFITF(inst core.Instance) (int64, error) {
	bs, err := newBruteSearcher(inst, fitfVictims)
	if err != nil {
		return 0, err
	}
	bs.step(newBState(bs.p))
	if bs.best == math.MaxInt64 {
		return 0, errNoSchedule
	}
	return bs.best, nil
}

// keepWitness snapshots the current decision path as the accepted
// schedule.
func (bs *bruteSearcher) keepWitness() {
	if !bs.record {
		return
	}
	bs.witness = append(bs.witness[:0], bs.path...)
}

// WitnessPIF searches honest schedules for one that meets the PIF
// bounds and returns its decision list, replayable through the
// simulator (see Replayer; count faults before pi.T to check the
// bounds). ok=false means no *honest* schedule exists — DecidePIF may
// still answer yes via a forcing schedule, which the replayer cannot
// express.
func WitnessPIF(pi PIFInstance) ([]Decision, bool, error) {
	if err := pi.Validate(); err != nil {
		return nil, false, err
	}
	bs, err := newBruteSearcher(pi.Inst, allVictims)
	if err != nil {
		return nil, false, err
	}
	if pi.T == 0 {
		return nil, true, nil
	}
	bs.checkT = true
	bs.T = pi.T
	bs.bounds = pi.Bounds
	bs.record = true
	bs.step(newBState(bs.p))
	if !bs.found {
		return nil, false, nil
	}
	return append([]Decision(nil), bs.witness...), true, nil
}

// BrutePIF decides PARTIAL-INDIVIDUAL-FAULTS by exhaustive search over
// honest schedules. Note that DecidePIF additionally searches forcing
// schedules by default; compare against DecidePIF with Options.HonestPIF.
func BrutePIF(pi PIFInstance) (bool, error) {
	if err := pi.Validate(); err != nil {
		return false, err
	}
	bs, err := newBruteSearcher(pi.Inst, allVictims)
	if err != nil {
		return false, err
	}
	if pi.T == 0 {
		return true, nil
	}
	bs.checkT = true
	bs.T = pi.T
	bs.bounds = pi.Bounds
	bs.step(newBState(bs.p))
	return bs.found, nil
}
