// Out-of-order intra-run engine: speculative per-core parallelism
// between faults.
//
// In the López-Ortiz & Salinger model, cores are coupled only at
// synchronization events: residency ground truth (readyAt) changes
// exclusively when a committed fault evicts a victim and installs a
// fetch. Between such events each core's service is a run of hits that
// is independent by construction, and a core's service times depend
// only on its own history (a hit advances its clock by 1, a fault by
// τ+1). The engine exploits this the way an out-of-order scheduler
// exploits independent instructions:
//
//   - Scan phase: worker goroutines speculatively scan each core's
//     sequence forward against the epoch-stable residency array,
//     classifying every access as hit or fault and precomputing its
//     exact service time. Faults by the scanned core itself are
//     accounted through a per-epoch fetch overlay; evictions by other
//     cores are unknown at scan time and handled by rollback.
//   - Commit phase: a single committer replays the speculated segments
//     in the canonical deterministic order (increasing time, then
//     increasing core index within a step), invoking OnHit/OnFault and
//     the observer exactly as the sequential engine would. Victim
//     choice happens live against committed ground truth, so
//     strategies (including oracle-driven FITF) see byte-identical
//     state.
//   - Rollback: when a committed fault evicts page v, the only
//     speculation it can invalidate is the v-owner's (inputs are
//     disjoint), starting at v's first unserved occurrence — located
//     exactly via the oracle's occurrence table. The owner's
//     speculation is truncated at that access and rescanned next
//     epoch.
//
// The engine is enabled per Runner via SetParallel and falls back to
// the sequential serve loop whenever its preconditions do not hold
// (p = 1, tiny instances, non-disjoint request sets, or Ticker
// strategies — voluntary evictions fire at every step boundary, which
// leaves no epoch to parallelize). Results and event streams are
// identical to the sequential engine in all cases; see DESIGN.md §7
// for the determinism argument and TestParallelMatchesSequential for
// the differential proof.
package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
)

// Engine-selection and speculation-depth knobs. Variables rather than
// constants so tests can shrink them to force epoch turnover and
// rollback on small instances; production code treats them as fixed.
var (
	// parMinRequests is the instance size below which a parallel run
	// is not worth the scan/commit synchronization and the Runner
	// silently serves sequentially.
	parMinRequests = 2048
	// parBudget and parBudgetMin bound the adaptive per-core scan
	// budget (accesses speculated per epoch). The budget starts at the
	// floor and is doubled or halved by commit yield: workloads whose
	// speculation survives to commit scan deep; workloads whose
	// speculation keeps getting cut by evictions stay shallow, so scan
	// work wasted to rollback is bounded by a constant factor of the
	// committed work.
	parBudget    = 8192
	parBudgetMin = 256
	// parMaxSegs bounds speculated fault segments per core per epoch.
	parMaxSegs = 1024
)

// Dense-universe disjointness verdicts cached on the engine per bind.
const (
	ownerUnknown uint8 = iota
	ownerDisjoint
	ownerShared
)

// parSeg is one speculated segment of a core's future: a run of
// consecutive hits, optionally terminated by a speculated fault. The
// hits occupy times startTime..startTime+hits-1; the fault, when
// present, is the access at index startIdx+hits served at time
// startTime+hits.
type parSeg struct {
	startIdx  int32
	hits      int32
	startTime int64
	endFault  bool
}

// parState is the reusable speculative-engine state of one Runner.
// Per-core fields are parallel flat arrays (SoA) so the committer's
// per-step sweep touches a few contiguous cache lines instead of p
// scattered structs.
type parState struct {
	workers int // SetParallel setting; 0 = sequential engine

	flat      core.Flat // dense sequences, one contiguous array (SoA)
	flatBound bool

	epoch int64 // monotone across runs; stale stamps never collide

	// Per-epoch speculated-fetch overlay: fetchReady[pg] overrides
	// readyAt[pg] during scans when fetchStamp[pg] == epoch. Only the
	// owning core's scanner writes a page's entries, so lanes never
	// race (inputs are disjoint).
	fetchStamp []int64
	fetchReady []int64

	// Per-core speculation, consumed by the committer.
	segs    [][]parSeg
	segHead []int32 // current segment during commit
	segPos  []int32 // hits of that segment already committed

	batchIdx  []int32 // per-core request-index base of a lockstep batch
	scanEnd   []int32 // per-core speculation horizon (first unspeculated index)
	curBudget int     // adaptive per-core scan budget for the next epoch

	// Per-lane scan counters, folded into EngineStats after the epoch
	// barrier so lanes never share a counter word.
	laneHits   []int64
	laneFaults []int64

	lanes int
	wg    sync.WaitGroup
}

// EngineStats counts engine-level activity of a Runner, cumulatively
// across runs: which engine served each run, epoch and speculation
// volume, and how often rollback paths fired. Tests use it to assert
// the parallel engine actually engaged; services can export it.
type EngineStats struct {
	// SequentialRuns and ParallelRuns count engine selections (a
	// "parallel" run is one that entered the epoch engine, even if
	// every epoch was trivial).
	SequentialRuns int64
	ParallelRuns   int64
	// Epochs counts scan+commit rounds across all parallel runs.
	Epochs int64
	// SpeculatedHits / SpeculatedFaults count scan-phase
	// classifications (including ones later discarded by rollback).
	SpeculatedHits   int64
	SpeculatedFaults int64
	// Cuts counts speculation truncations forced by committed
	// evictions (the rollback path).
	Cuts int64
	// MicroSteps counts single requests served through the sequential
	// rules inside a parallel run — the guaranteed-progress escape
	// hatch when an epoch yields no committable speculation.
	MicroSteps int64
}

// Stats returns a snapshot of the runner's cumulative engine counters.
func (r *Runner) Stats() EngineStats { return r.stats }

// SetParallel selects the engine for subsequent runs: workers ≥ 1
// enables the speculative epoch engine with that many concurrent scan
// lanes (1 scans on the committer goroutine itself — useful for
// deterministic debugging), 0 restores the sequential engine. The
// setting is a ceiling, not a demand: runs fall back to sequential
// when the parallel preconditions fail (see package comment). Results
// are identical either way.
func (r *Runner) SetParallel(workers int) {
	if workers < 0 {
		workers = 0
	}
	r.par.workers = workers
}

// Parallel reports the configured worker setting.
func (r *Runner) Parallel() int { return r.par.workers }

// RunParallel is Run with the speculative parallel engine enabled at
// the given worker count, for one-shot callers; it follows the same
// fallback rules as Runner.SetParallel.
func RunParallel(inst core.Instance, s Strategy, obs Observer, workers int) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, err
	}
	r := runnerPool.Get().(*Runner)
	defer func() {
		r.release()
		runnerPool.Put(r)
	}()
	if err := r.bind(inst.R); err != nil {
		return Result{}, err
	}
	r.SetParallel(workers)
	//mcvet:ignore ctxflow RunParallel is the documented synchronous wrapper: a caller without a ctx is its own cancellation root
	return r.RunContext(context.Background(), inst.P, s, obs)
}

// parallelReady reports whether the next run may use the speculative
// engine: it is enabled, the instance is big enough to amortize epoch
// synchronization, there are cores to overlap, and the request set is
// disjoint (the model's own theorem setting) so speculation ownership
// is well defined. Callers have already excluded Ticker strategies.
func (r *Runner) parallelReady() bool {
	if r.par.workers < 1 || len(r.rs) < 2 || r.e.occN < parMinRequests {
		return false
	}
	return r.e.disjointDense()
}

// disjointDense checks (once per bind) that no dense page occurs in
// two cores' sequences, building the page→owner table the rollback
// path needs as a side effect.
func (e *engine) disjointDense() bool {
	if e.ownerState == ownerUnknown {
		e.owner = growSlice(e.owner, e.w)
		for i := range e.owner {
			e.owner[i] = -1
		}
		e.ownerState = ownerDisjoint
	check:
		for c, seq := range e.seqs {
			cc := int32(c)
			for _, pg := range seq {
				if o := e.owner[pg]; o >= 0 && o != cc {
					e.ownerState = ownerShared
					break check
				}
				e.owner[pg] = cc
			}
		}
	}
	return e.ownerState == ownerDisjoint
}

// ensurePar grows the speculative-engine arrays to the bound universe
// and core count, reusing capacity across binds like every other
// engine table.
func (r *Runner) ensurePar() {
	e := &r.e
	ps := &r.par
	if !e.occBuilt { // rollback cuts reuse the oracle's occurrence table
		e.buildOcc(e.occN)
		e.occBuilt = true
	}
	if !ps.flatBound {
		ps.flat = core.FlattenInto(ps.flat, core.RequestSet(e.seqs))
		ps.flatBound = true
	}
	ps.fetchStamp = growSlice(ps.fetchStamp, e.w)
	ps.fetchReady = growSlice(ps.fetchReady, e.w)
	p := len(e.seqs)
	ps.segHead = growSlice(ps.segHead, p)
	ps.segPos = growSlice(ps.segPos, p)
	ps.batchIdx = growSlice(ps.batchIdx, p)
	ps.scanEnd = growSlice(ps.scanEnd, p)
	for len(ps.segs) < p {
		ps.segs = append(ps.segs, nil)
	}
	if ps.curBudget < parBudgetMin {
		ps.curBudget = parBudgetMin
	}
	if ps.curBudget > parBudget {
		ps.curBudget = parBudget
	}
}

// scanJob is one lane of an epoch's scan phase, dispatched to the
// shared worker pool.
type scanJob struct {
	r    *Runner
	lane int
}

// parPool is the process-wide scan-worker pool: GOMAXPROCS goroutines
// started once on first use and reused by every parallel run, so a
// Runner never spawns goroutines per run (and sweeps with many Runners
// share one bounded pool instead of multiplying them).
var parPool struct {
	once sync.Once
	jobs chan scanJob
}

func parPoolStart() {
	parPool.jobs = make(chan scanJob)
	for i := runtime.GOMAXPROCS(0); i > 0; i-- {
		go func() {
			for j := range parPool.jobs {
				j.r.scanLane(j.lane)
				j.r.par.wg.Done()
			}
		}()
	}
}

// runParallel executes one run through the epoch engine. The strategy
// has been Init-ed and the engine reset by RunContext; res carries the
// preallocated result arrays.
//
//mcpaging:hotpath
func (r *Runner) runParallel(ctx context.Context, s Strategy, obs Observer, res *Result) (Result, error) {
	e := &r.e
	ps := &r.par
	r.ensurePar()
	p := len(e.seqs)
	lanes := ps.workers
	if lanes > p {
		lanes = p
	}
	// More lanes than schedulable threads only adds dispatch overhead:
	// the committed result is lane-count-independent, so clamping is
	// invisible to callers.
	if m := runtime.GOMAXPROCS(0); lanes > m {
		lanes = m
	}
	ps.lanes = lanes
	ps.laneHits = growSlice(ps.laneHits, lanes)
	ps.laneFaults = growSlice(ps.laneFaults, lanes)
	if lanes > 1 {
		parPool.once.Do(parPoolStart)
	}

	var served, nextCheck int64 = 0, cancelCheckEvery
	for {
		// Scan phase: speculate every unfinished core forward from its
		// committed cursor. Lane 0 runs on this goroutine; the rest go
		// to the shared pool. Residency is epoch-stable (the committer
		// is parked here), so scanners read readyAt freely.
		ps.epoch++
		r.stats.Epochs++
		if lanes > 1 {
			ps.wg.Add(lanes - 1)
			for l := 1; l < lanes; l++ {
				//mcvet:ignore ctxflow aborting the send would orphan the matching wg.Add; pool workers always drain, and cancellation lands at the commitEpoch poll
				parPool.jobs <- scanJob{r: r, lane: l}
			}
		}
		r.scanLane(0)
		if lanes > 1 {
			ps.wg.Wait()
		}
		var spec int64
		for l := 0; l < lanes; l++ {
			spec += ps.laneHits[l] + ps.laneFaults[l]
			r.stats.SpeculatedHits += ps.laneHits[l]
			r.stats.SpeculatedFaults += ps.laneFaults[l]
		}

		// Commit phase: replay speculation in canonical order until it
		// runs dry (epoch over) or the run completes.
		before := served
		done, err := r.commitEpoch(ctx, s, obs, res, &served, &nextCheck)
		if err != nil {
			return *res, err
		}
		// Commit yield steers the next epoch's scan depth: ≥3/4 of the
		// speculation committed → scan deeper; <1/4 committed (cuts or
		// overlay-blind hits dominated) → scan shallower, bounding the
		// work rollback can waste.
		if committed := served - before; spec > 0 {
			switch {
			case committed*4 >= spec*3 && ps.curBudget < parBudget:
				ps.curBudget *= 2
				if ps.curBudget > parBudget {
					ps.curBudget = parBudget
				}
			case committed*4 < spec && ps.curBudget > parBudgetMin:
				ps.curBudget /= 2
				if ps.curBudget < parBudgetMin {
					ps.curBudget = parBudgetMin
				}
			}
		}
		if done {
			break
		}
		if served == before {
			// Cold rollback recovery: a fresh scan produced nothing the
			// committer could order first (only possible through the
			// stall guards). Serve one request through the sequential
			// rules so the run always advances, then re-speculate.
			//mcpaging:coldpath single-step fallback, never on the steady-state path
			if err := r.microStep(s, obs, res, &served); err != nil {
				return *res, err
			}
		}
	}
	for c := 0; c < p; c++ {
		if res.Finish[c] > res.Makespan {
			res.Makespan = res.Finish[c]
		}
	}
	return *res, nil
}

// scanLane speculates the cores of one lane (core index ≡ lane mod
// lanes); it is the unit of work the pool executes.
//
//mcpaging:hotpath
func (r *Runner) scanLane(lane int) {
	ps := &r.par
	p := ps.flat.NumCores()
	var hits, faults int64
	for c := lane; c < p; c += ps.lanes {
		h, f := r.scanCore(c)
		hits += h
		faults += f
	}
	ps.laneHits[lane] = hits
	ps.laneFaults[lane] = faults
}

// scanCore speculatively classifies core c's next accesses against the
// epoch-stable residency snapshot, recording hit-run segments and
// their exact service times. The scan accounts for the core's own
// speculated fetches through the per-epoch overlay; evictions that
// other cores' faults will commit are unknown here and are handled by
// cutSpeculation at commit time.
//
//mcpaging:hotpath
func (r *Runner) scanCore(c int) (specHits, specFaults int64) {
	e := &r.e
	ps := &r.par
	seq := ps.flat.Seq(c)
	segs := ps.segs[c][:0]
	ps.segHead[c] = 0
	ps.segPos[c] = 0
	i := int32(e.idx[c])
	n := int32(len(seq))
	if i >= n {
		ps.segs[c] = segs
		ps.scanEnd[c] = i
		return 0, 0
	}
	t := e.next[c]
	epoch := ps.epoch
	tau := e.tau
	readyAt := e.readyAt
	fetchStamp, fetchReady := ps.fetchStamp, ps.fetchReady
	cur := parSeg{startIdx: i, startTime: t}
	for budget := ps.curBudget; budget > 0 && i < n; budget-- {
		pg := seq[i]
		rdy := readyAt[pg]
		if fetchStamp[pg] == epoch {
			rdy = fetchReady[pg]
		}
		if rdy != notCached && rdy <= t {
			cur.hits++
			specHits++
			i++
			t++
			continue
		}
		if rdy != notCached {
			// In flight at its own access time: unreachable for the
			// disjoint inputs this engine accepts (a core's fetches
			// complete exactly when its clock resumes). Stop here; the
			// committer falls back to a sequential micro-step.
			break
		}
		// Speculative fault: τ-delay the core and overlay the fetch.
		cur.endFault = true
		specFaults++
		segs = append(segs, cur) //mcvet:ignore hotalloc segment storage reaches steady-state capacity after the first epochs
		fetchStamp[pg] = epoch
		fetchReady[pg] = t + tau + 1
		i++
		t += tau + 1
		cur = parSeg{startIdx: i, startTime: t}
		if len(segs) >= parMaxSegs {
			break
		}
	}
	if cur.hits > 0 {
		segs = append(segs, cur)
	}
	ps.segs[c] = segs
	ps.scanEnd[c] = i
	return specHits, specFaults
}

// commitEpoch replays the speculated segments in the exact sequential
// order — increasing time, increasing core index within a step —
// driving strategy callbacks and the observer identically to the
// sequential serve loop. It returns done=true when every request has
// been served, or false when speculation ran dry and a new epoch must
// rescan.
//
//mcpaging:hotpath
func (r *Runner) commitEpoch(ctx context.Context, s Strategy, obs Observer, res *Result, served, nextCheck *int64) (bool, error) {
	e := &r.e
	ps := &r.par
	p := len(e.seqs)
	flat := ps.flat
	for {
		if *served >= *nextCheck {
			*nextCheck = *served + cancelCheckEvery
			if err := ctx.Err(); err != nil {
				return false, fmt.Errorf("sim: strategy %s run aborted after %d requests: %w", s.Name(), *served, err)
			}
		}
		// Next service time: min clock over unfinished cores, exactly
		// as in the sequential scheduler — plus the second-smallest
		// clock and the tie count, which decide whether a whole hit
		// run can be committed without re-entering this scheduler.
		t, t2 := int64(math.MaxInt64), int64(math.MaxInt64)
		ties, active, cmin := 0, 0, 0
		for c := 0; c < p; c++ {
			if e.idx[c] >= flat.Len(c) {
				continue
			}
			active++
			switch nc := e.next[c]; {
			case nc < t:
				t2 = t
				t, cmin, ties = nc, c, 1
			case nc == t:
				ties++
			case nc < t2:
				t2 = nc
			}
		}
		if t == int64(math.MaxInt64) {
			return true, nil
		}
		e.now = t

		// Elastic capacity: apply schedule boundaries (and retry blocked
		// sheds) at exactly the service times the sequential loop would,
		// cutting speculation at every shed victim. The fast paths below
		// are fenced at nextChange so no committed run crosses a
		// boundary unchecked.
		if e.sched != nil && (t >= e.nextChange || e.used > e.k) {
			if err := r.applyCapacity(t, s, obs, res, true); err != nil {
				return false, err
			}
		}

		// Fast path: one core is due strictly before every other, and
		// its speculation continues with a hit run. Service order over
		// [t, t2) is just that core's consecutive hits, so they commit
		// in one sweep with no per-event scheduling.
		if ties == 1 {
			c := cmin
			segs := ps.segs[c]
			h := int(ps.segHead[c])
			pos := ps.segPos[c]
			for h < len(segs) && pos >= segs[h].hits && !segs[h].endFault {
				h++
				pos = 0
			}
			ps.segHead[c] = int32(h)
			ps.segPos[c] = pos
			if h < len(segs) && pos < segs[h].hits && segs[h].startTime+int64(pos) == t {
				k := int64(segs[h].hits - pos)
				if t2 != int64(math.MaxInt64) && t2-t < k {
					k = t2 - t
				}
				if e.sched != nil {
					// Fence the committed run at the next capacity
					// boundary; while a shed is blocked on in-flight
					// pages, commit one step at a time so the retry
					// fires at every service time, like the sequential
					// loop.
					if e.used > e.k {
						k = 1
					} else if e.nextChange-t < k {
						k = e.nextChange - t
					}
				}
				seq := flat.Seq(c)
				base := int(segs[h].startIdx) + int(pos)
				for j := 0; j < int(k); j++ {
					i := base + j
					op := seq[i]
					if e.inv != nil {
						op = e.inv[op]
					}
					s.OnHit(op, cache.Access{Core: c, Time: t + int64(j), Index: i})
					if obs != nil {
						obs(Event{Time: t + int64(j), Core: c, Index: i, Page: op, Victim: core.NoPage, VictimCore: -1})
					}
				}
				res.Hits[c] += k
				*served += k
				e.idx[c] = base + int(k)
				e.next[c] = t + k
				ps.segPos[c] = pos + int32(k)
				if e.idx[c] == flat.Len(c) {
					res.Finish[c] = e.next[c]
				}
				continue
			}
			// No committable hit run: fall through to the general
			// sweep, which serves the fault or ends the epoch.
		} else if ties == active {
			// Fast path: every unfinished core is due at t and inside
			// a hit run. For the next m steps the canonical order is m
			// identical rounds over the cores in index order, with no
			// scheduling in between — the lockstep pattern that
			// otherwise pays a full min-scan per step.
			m := int32(math.MaxInt32)
			ok := true
			for c := 0; c < p; c++ {
				if e.idx[c] >= flat.Len(c) {
					ps.batchIdx[c] = -1
					continue
				}
				segs := ps.segs[c]
				h := int(ps.segHead[c])
				pos := ps.segPos[c]
				for h < len(segs) && pos >= segs[h].hits && !segs[h].endFault {
					h++
					pos = 0
				}
				ps.segHead[c] = int32(h)
				ps.segPos[c] = pos
				if h >= len(segs) || pos >= segs[h].hits || segs[h].startTime+int64(pos) != t {
					ok = false
					break
				}
				ps.batchIdx[c] = segs[h].startIdx + pos
				if rem := segs[h].hits - pos; rem < m {
					m = rem
				}
			}
			if ok && m > 0 && e.sched != nil {
				// Same boundary fence as the single-core hit run.
				if e.used > e.k {
					m = 1
				} else if nc := e.nextChange - t; nc < int64(m) {
					m = int32(nc)
				}
			}
			if ok && m > 0 {
				for j := int32(0); j < m; j++ {
					tj := t + int64(j)
					for c := 0; c < p; c++ {
						bi := ps.batchIdx[c]
						if bi < 0 {
							continue
						}
						i := int(bi + j)
						op := flat.Pages[flat.Off[c]+bi+j]
						if e.inv != nil {
							op = e.inv[op]
						}
						s.OnHit(op, cache.Access{Core: c, Time: tj, Index: i})
						if obs != nil {
							obs(Event{Time: tj, Core: c, Index: i, Page: op, Victim: core.NoPage, VictimCore: -1})
						}
					}
				}
				for c := 0; c < p; c++ {
					if ps.batchIdx[c] < 0 {
						continue
					}
					res.Hits[c] += int64(m)
					*served += int64(m)
					e.idx[c] = int(ps.batchIdx[c] + m)
					e.next[c] = t + int64(m)
					ps.segPos[c] += m
					if e.idx[c] == flat.Len(c) {
						res.Finish[c] = e.next[c]
					}
				}
				continue
			}
			// A core is at a fault or out of speculation: serve this
			// step event by event below.
		}

		for c := 0; c < p; c++ {
			if e.next[c] != t || e.idx[c] >= flat.Len(c) {
				continue
			}
			segs := ps.segs[c]
			h := int(ps.segHead[c])
			pos := ps.segPos[c]
			for h < len(segs) && pos >= segs[h].hits && !segs[h].endFault {
				h++
				pos = 0
			}
			ps.segHead[c] = int32(h)
			ps.segPos[c] = pos
			if h >= len(segs) {
				// Speculation exhausted for the core that must be
				// served next (budget horizon, rollback cut, or scan
				// stall): the epoch is over; rescan from committed
				// state.
				return false, nil
			}
			seg := &segs[h]
			if seg.startTime+int64(pos) != t {
				// Timing drift would mean broken speculation; never
				// commit it — rescanning from committed ground truth
				// is always correct.
				return false, nil
			}
			i := int(seg.startIdx) + int(pos)
			pg := flat.Seq(c)[i]
			op := pg
			if e.inv != nil {
				op = e.inv[pg]
			}
			*served++
			if pos < seg.hits {
				// Speculated hit: residency of c's pages can only have
				// changed through a committed eviction, and every
				// eviction cut invalidates speculation exactly at the
				// victim's next unserved occurrence — so reaching this
				// point proves the hit is live.
				res.Hits[c]++
				e.idx[c] = i + 1
				e.next[c] = t + 1
				s.OnHit(op, cache.Access{Core: c, Time: t, Index: i})
				ps.segPos[c] = pos + 1
				if e.idx[c] == flat.Len(c) {
					res.Finish[c] = e.next[c]
				}
				if obs != nil {
					obs(Event{Time: t, Core: c, Index: i, Page: op, Victim: core.NoPage, VictimCore: -1})
				}
				continue
			}
			// Speculated fault (pos == seg.hits and seg.endFault). The
			// victim choice runs live against committed ground truth.
			if e.readyAt[pg] != notCached {
				// The page was fetched since the scan — impossible for
				// disjoint inputs, guarded like the stall case.
				return false, nil
			}
			res.Faults[c]++
			// Advance this core's position before consulting the
			// strategy so the oracle sees the post-service state.
			e.idx[c] = i + 1
			e.next[c] = t + e.tau + 1
			victim := s.OnFault(op, cache.Access{Core: c, Time: t, Index: i}, e)
			victimCore := -1
			if victim == core.NoPage {
				if e.used >= e.k {
					return false, fmt.Errorf("sim: strategy %s requested a free cell but cache is full (t=%d core=%d page=%d)", s.Name(), t, c, op)
				}
			} else {
				holder, err := e.evictOriginal(victim, t)
				if err != nil {
					return false, fmt.Errorf("sim: strategy %s: %w", s.Name(), err)
				}
				victimCore = holder
				r.cutSpeculation(victim)
			}
			e.readyAt[pg] = t + e.tau + 1
			e.fetchedBy[pg] = int32(c)
			e.used++
			ps.segHead[c] = int32(h + 1)
			ps.segPos[c] = 0
			if e.idx[c] == flat.Len(c) {
				res.Finish[c] = e.next[c]
			}
			if obs != nil {
				obs(Event{Time: t, Core: c, Index: i, Page: op, Fault: true, Victim: victim, VictimCore: victimCore})
			}
		}
	}
}

// cutSpeculation is the rollback: a committed eviction of victim can
// only invalidate the victim owner's speculation (inputs are
// disjoint), and only from the victim's first unserved occurrence
// onward — every earlier speculated access was already committed,
// because commit order is global time order. The occurrence table
// locates that position exactly, so no valid speculation is discarded
// and no invalid speculation survives.
//
//mcpaging:hotpath
func (r *Runner) cutSpeculation(victim core.PageID) {
	e := &r.e
	dv, ok := e.denseID(victim)
	if !ok {
		return // evictOriginal already validated; defensive
	}
	o := e.owner[dv]
	if o < 0 {
		return
	}
	ps := &r.par
	// Disjoint inputs give each page exactly one (page, core) pair.
	s0 := e.slotStart[dv]
	if s0 == e.slotStart[dv+1] {
		return
	}
	// Advance the pair cursor past served occurrences — the same lazy
	// rule the oracle applies, so sharing the cursor is safe.
	j, end := e.pairPtr[s0], e.pairEnd[s0]
	idx := int32(e.idx[o])
	for j < end && e.pos[j] < idx {
		j++
	}
	e.pairPtr[s0] = j
	if j == end {
		return // the victim is never requested again
	}
	q := e.pos[j]
	if q >= ps.scanEnd[o] {
		// Beyond the speculation horizon: the eviction cannot touch
		// anything scanned, so skip the segment walk entirely. This is
		// the overwhelmingly common case in fault-heavy workloads,
		// where victims resurface hundreds of accesses later.
		return
	}
	ps.scanEnd[o] = q
	segs := ps.segs[o]
	for m := int(ps.segHead[o]); m < len(segs); m++ {
		sg := &segs[m]
		endIdx := sg.startIdx + sg.hits
		switch {
		case q < sg.startIdx:
			// Defensive: unreachable, since q is unserved and so
			// cannot precede the committed cursor.
			ps.segs[o] = segs[:m]
			r.stats.Cuts++
			return
		case q < endIdx:
			// Inside the hit run: keep the hits before the victim's
			// access, drop everything at and after it.
			sg.hits = q - sg.startIdx
			sg.endFault = false
			ps.segs[o] = segs[:m+1]
			r.stats.Cuts++
			return
		case sg.endFault && q == endIdx:
			// Exactly at the speculated fault.
			sg.endFault = false
			ps.segs[o] = segs[:m+1]
			r.stats.Cuts++
			return
		}
	}
	// Beyond the speculated horizon: nothing to cut.
}

// microStep serves exactly one request through the sequential rules —
// the guaranteed-progress escape hatch for epochs whose speculation
// could not be ordered first. It picks the same core the sequential
// scheduler would (lowest index among minimum clocks) and replicates
// the serve-loop body verbatim, so the event stream stays identical.
func (r *Runner) microStep(s Strategy, obs Observer, res *Result, served *int64) error {
	e := &r.e
	p := len(e.seqs)
	t := int64(math.MaxInt64)
	for c := 0; c < p; c++ {
		if e.idx[c] < len(e.seqs[c]) && e.next[c] < t {
			t = e.next[c]
		}
	}
	if t == int64(math.MaxInt64) {
		return nil
	}
	e.now = t
	if e.sched != nil && (t >= e.nextChange || e.used > e.k) {
		if err := r.applyCapacity(t, s, obs, res, true); err != nil {
			return err
		}
	}
	for c := 0; c < p; c++ {
		if e.idx[c] >= len(e.seqs[c]) || e.next[c] != t {
			continue
		}
		i := e.idx[c]
		*served++
		r.stats.MicroSteps++
		pg := e.seqs[c][i]
		op := pg
		if e.inv != nil {
			op = e.inv[pg]
		}
		at := cache.Access{Core: c, Time: t, Index: i}
		ev := Event{Time: t, Core: c, Index: i, Page: op, Victim: core.NoPage, VictimCore: -1}
		ready := e.readyAt[pg]
		switch {
		case ready != notCached && ready <= t: // hit
			res.Hits[c]++
			e.idx[c] = i + 1
			e.next[c] = t + 1
			s.OnHit(op, at)
		case ready != notCached: // in-flight join
			res.Faults[c]++
			ev.Fault, ev.Join = true, true
			e.idx[c] = i + 1
			e.next[c] = t + e.tau + 1
			s.OnJoin(op, at)
		default: // fault
			res.Faults[c]++
			ev.Fault = true
			e.idx[c] = i + 1
			e.next[c] = t + e.tau + 1
			victim := s.OnFault(op, at, e)
			if victim == core.NoPage {
				if e.used >= e.k {
					return fmt.Errorf("sim: strategy %s requested a free cell but cache is full (t=%d core=%d page=%d)", s.Name(), t, c, op)
				}
			} else {
				holder, err := e.evictOriginal(victim, t)
				if err != nil {
					return fmt.Errorf("sim: strategy %s: %w", s.Name(), err)
				}
				ev.Victim, ev.VictimCore = victim, holder
				r.cutSpeculation(victim)
			}
			e.readyAt[pg] = t + e.tau + 1
			e.fetchedBy[pg] = int32(c)
			e.used++
		}
		if e.idx[c] == len(e.seqs[c]) {
			res.Finish[c] = e.next[c]
		}
		if obs != nil {
			obs(ev)
		}
		return nil // exactly one request per micro-step
	}
	return nil
}
