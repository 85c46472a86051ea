package offline

import (
	"fmt"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/sim"
)

// Decision is one eviction decision of an offline schedule: when the
// given core faults on Page, evict Victim (core.NoPage = use a free
// cell). Decisions are ordered by (timestep, core) — exactly the order
// in which the simulator consults a strategy, so a schedule can be
// replayed verbatim.
type Decision struct {
	Core   int
	Page   core.PageID
	Victim core.PageID
}

// SolveFTFSeqSchedule computes the exact minimum total faults (like
// SolveFTFSeq) and additionally returns one optimal schedule as a
// decision list. Replaying the schedule through the simulator
// (ReplaySchedule) reproduces the optimum fault for fault — the
// end-to-end consistency proof between the dynamic program and the
// engine. Options.AllowForcing is rejected: a Replayer cannot replay
// voluntary evictions.
func SolveFTFSeqSchedule(inst core.Instance, opts Options) (FTFSolution, []Decision, error) {
	if opts.AllowForcing {
		return FTFSolution{}, nil, fmt.Errorf("solve FTF seq schedule: Options.AllowForcing is not supported: a Replayer cannot replay voluntary evictions")
	}
	pr, err := newPrep(inst)
	if err != nil {
		return FTFSolution{}, nil, err
	}
	best, states, err := pr.solveDP("solve FTF seq schedule", opts, true, func(st *ftfNode, add func(*ftfNode)) {
		pr.seqTransition(st, inst.P.K, false, true, add)
	})
	if err != nil {
		return FTFSolution{}, nil, err
	}
	if best == nil {
		return FTFSolution{}, nil, fmt.Errorf("solve FTF seq schedule: no feasible schedule")
	}
	var rev [][]Decision
	for n := best; n.parent != nil; n = n.parent {
		rev = append(rev, n.step)
	}
	var sched []Decision
	for i := len(rev) - 1; i >= 0; i-- {
		sched = append(sched, rev[i]...)
	}
	return FTFSolution{Faults: best.faults, States: states}, sched, nil
}

// Replayer is a sim.Strategy that executes a precomputed decision list.
// It errors (through Err) if the run's fault pattern diverges from the
// schedule. Once the schedule is exhausted — which is expected for PIF
// witnesses, whose decisions only cover the prefix up to the checkpoint
// — the replayer falls back to LRU over the residency book-keeping it
// maintained during the replay, so the run completes cleanly.
type Replayer struct {
	sched []Decision
	pos   int
	err   error

	seq  int64
	last map[core.PageID]int64 // cached pages → last-use stamp
}

// NewReplayer wraps a schedule produced by SolveFTFSeqSchedule or
// WitnessPIF.
func NewReplayer(sched []Decision) *Replayer { return &Replayer{sched: sched} }

// Name implements sim.Strategy.
func (r *Replayer) Name() string { return "replay" }

// Init implements sim.Strategy.
func (r *Replayer) Init(core.Instance) error {
	r.pos = 0
	r.err = nil
	r.seq = 0
	r.last = make(map[core.PageID]int64)
	return nil
}

// Err reports a divergence between the schedule and the observed run.
func (r *Replayer) Err() error { return r.err }

// Consumed reports how many decisions were used.
func (r *Replayer) Consumed() int { return r.pos }

func (r *Replayer) touch(p core.PageID) {
	r.seq++
	r.last[p] = r.seq
}

// OnHit implements sim.Strategy.
func (r *Replayer) OnHit(p core.PageID, _ cache.Access) { r.touch(p) }

// OnJoin implements sim.Strategy.
func (r *Replayer) OnJoin(p core.PageID, _ cache.Access) { r.touch(p) }

// OnFault implements sim.Strategy.
func (r *Replayer) OnFault(p core.PageID, at cache.Access, v sim.View) core.PageID {
	var victim core.PageID = core.NoPage
	switch {
	case r.pos < len(r.sched):
		d := r.sched[r.pos]
		r.pos++
		if d.Core != at.Core || d.Page != p {
			r.err = fmt.Errorf("offline: replay divergence: schedule expects core %d page %d, run faulted core %d page %d",
				d.Core, d.Page, at.Core, p)
		}
		victim = d.Victim
	case v.Free() > 0:
		// Tail: free cell available.
	default:
		// Tail: evict the least recently used resident page.
		var best int64 = 1<<63 - 1
		//mcvet:ignore detmap min-reduction with explicit smallest-ID tie-break is order-independent
		for q, lastUse := range r.last {
			if q == p || !v.Resident(q) {
				continue
			}
			if lastUse < best || (lastUse == best && (victim == core.NoPage || q < victim)) {
				victim, best = q, lastUse
			}
		}
		if victim == core.NoPage {
			r.err = fmt.Errorf("offline: replay tail found no evictable page at t=%d", at.Time)
		}
	}
	if victim != core.NoPage {
		delete(r.last, victim)
	}
	r.touch(p)
	return victim
}
