package offline_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mcpaging/internal/core"
	"mcpaging/internal/offline"
	"mcpaging/internal/sim"
)

// TestScheduleReplayReproducesOptimum is the end-to-end consistency
// proof: the schedule extracted from the exact DP, replayed through the
// simulator, reproduces the optimal fault count exactly and consumes
// every decision.
func TestScheduleReplayReproducesOptimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tinyInstance(rng)
		sol, sched, err := offline.SolveFTFSeqSchedule(in, offline.Options{})
		if err != nil {
			return false
		}
		rep := offline.NewReplayer(sched)
		res, err := sim.Run(in, rep, nil)
		if err != nil {
			return false
		}
		if rep.Err() != nil {
			return false
		}
		return res.TotalFaults() == sol.Faults &&
			rep.Consumed() == len(sched) &&
			int64(len(sched)) == sol.Faults
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleMatchesPlainSolver: the schedule-producing solver agrees
// with the plain solver on the optimum.
func TestScheduleMatchesPlainSolver(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tinyInstance(rng)
		a, _, err := offline.SolveFTFSeqSchedule(in, offline.Options{})
		if err != nil {
			return false
		}
		b, err := offline.SolveFTFSeq(in, offline.Options{})
		if err != nil {
			return false
		}
		return a.Faults == b.Faults
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleOnGapInstance replays the documented pinned-rule gap
// instance: the extracted 3-fault schedule must execute in the
// simulator even though the paper's Algorithm 1 cannot express it.
func TestScheduleOnGapInstance(t *testing.T) {
	in := core.Instance{
		R: core.RequestSet{{2, 2}, {100, 101, 101, 100}},
		P: core.Params{K: 2, Tau: 0},
	}
	sol, sched, err := offline.SolveFTFSeqSchedule(in, offline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Faults != 3 {
		t.Fatalf("optimum = %d, want 3", sol.Faults)
	}
	rep := offline.NewReplayer(sched)
	res, err := sim.Run(in, rep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() != nil {
		t.Fatal(rep.Err())
	}
	if res.TotalFaults() != 3 {
		t.Fatalf("replay faults = %d, want 3", res.TotalFaults())
	}
}

func TestReplayerDivergenceDetected(t *testing.T) {
	// A wrong schedule (victim of a page never cached) aborts the run.
	in := core.Instance{
		R: core.RequestSet{{1, 2, 3}},
		P: core.Params{K: 2, Tau: 0},
	}
	bad := []offline.Decision{
		{Core: 0, Page: 1, Victim: core.NoPage},
		{Core: 0, Page: 2, Victim: core.NoPage},
		{Core: 0, Page: 3, Victim: 99},
	}
	rep := offline.NewReplayer(bad)
	if _, err := sim.Run(in, rep, nil); err == nil {
		t.Fatal("invalid victim should abort the simulation")
	}
	// A schedule that is too short is no longer an error: the LRU tail
	// takes over (see TestReplayerTailCompletes).
	short := offline.NewReplayer(bad[:1])
	if _, err := sim.Run(in, short, nil); err != nil {
		t.Fatalf("short schedule should complete via the tail: %v", err)
	}
	if short.Err() != nil {
		t.Fatal(short.Err())
	}
	// A schedule naming the wrong page diverges.
	wrong := offline.NewReplayer([]offline.Decision{{Core: 0, Page: 9, Victim: core.NoPage}})
	if _, err := sim.Run(in, wrong, nil); err != nil {
		t.Fatal(err)
	}
	if wrong.Err() == nil {
		t.Fatal("page divergence should surface")
	}
}

// TestWitnessPIFReplay: when the honest search certifies a PIF yes, its
// witness schedule replayed in the simulator respects every bound at the
// checkpoint.
func TestWitnessPIFReplay(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tinyInstance(rng)
		p := in.R.NumCores()
		bounds := make([]int64, p)
		for i := range bounds {
			bounds[i] = int64(rng.Intn(len(in.R[i]) + 1))
		}
		maxT := int64(in.R.MaxLen() * (in.P.Tau + 1))
		pi := offline.PIFInstance{Inst: in, T: rng.Int63n(maxT + 2), Bounds: bounds}
		sched, ok, err := offline.WitnessPIF(pi)
		if err != nil {
			return false
		}
		brute, err := offline.BrutePIF(pi)
		if err != nil || ok != brute {
			return false
		}
		if !ok {
			return true
		}
		rep := offline.NewReplayer(sched)
		counts := make([]int64, p)
		_, err = sim.Run(in, rep, func(ev sim.Event) {
			if ev.Fault && ev.Time < pi.T {
				counts[ev.Core]++
			}
		})
		if err != nil || rep.Err() != nil {
			return false
		}
		for i, c := range counts {
			if c > bounds[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayerTailCompletes: a schedule covering only a prefix still
// lets the run finish via the LRU tail.
func TestReplayerTailCompletes(t *testing.T) {
	in := core.Instance{
		R: core.RequestSet{{1, 2, 3, 1, 2, 3}},
		P: core.Params{K: 2, Tau: 0},
	}
	// Only the first two decisions are scheduled.
	sched := []offline.Decision{
		{Core: 0, Page: 1, Victim: core.NoPage},
		{Core: 0, Page: 2, Victim: core.NoPage},
	}
	rep := offline.NewReplayer(sched)
	res, err := sim.Run(in, rep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() != nil {
		t.Fatal(rep.Err())
	}
	if res.TotalFaults()+res.TotalHits() != 6 {
		t.Fatal("run did not complete")
	}
}

// TestScheduleRejectsForcing: the schedule solver refuses AllowForcing
// instead of silently solving the honest problem, since a Replayer cannot
// replay voluntary evictions.
func TestScheduleRejectsForcing(t *testing.T) {
	in := core.Instance{R: core.RequestSet{{1, 2, 1}}, P: core.Params{K: 2}}
	_, sched, err := offline.SolveFTFSeqSchedule(in, offline.Options{AllowForcing: true})
	if err == nil || !strings.Contains(err.Error(), "AllowForcing") {
		t.Fatalf("err = %v, want an error naming AllowForcing", err)
	}
	if sched != nil {
		t.Fatalf("schedule %v returned with the error", sched)
	}
}
