package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/policy"
	"mcpaging/internal/sim"
)

func fitf() cache.Factory { return func() cache.Policy { return cache.NewFITF() } }

// diffStrategies builds the strategy set exercised by the differential
// tests: one recency-based shared strategy, one static partition, and the
// oracle-driven FITF (which stresses NextUse and the ID-visibility
// contract — its tie-break depends on raw page IDs).
func diffStrategies(k, p int) []func() sim.Strategy {
	return []func() sim.Strategy{
		func() sim.Strategy { return policy.NewShared(lru()) },
		func() sim.Strategy { return policy.NewStatic(policy.EvenSizes(k, p), lru()) },
		func() sim.Strategy { return policy.NewShared(fitf()) },
	}
}

// randomInstance generates instance i of the differential corpus. The
// corpus mixes core counts 1..3, disjoint and shared page pools, τ∈0..5,
// and — every third instance — huge sparse page IDs that force the
// renumbering path of the dense engine.
func randomInstance(rng *rand.Rand, i int) core.Instance {
	p := 1 + rng.Intn(3)
	tau := rng.Intn(6)
	k := p + rng.Intn(12)
	pages := 2 + rng.Intn(20)
	shared := rng.Intn(2) == 0
	sparse := i%3 == 0

	remap := func(id core.PageID) core.PageID {
		if sparse {
			return 50000000 + id*1000003
		}
		return id
	}
	rs := make(core.RequestSet, p)
	for c := range rs {
		n := 1 + rng.Intn(40)
		seq := make(core.Sequence, n)
		for j := range seq {
			id := core.PageID(rng.Intn(pages))
			if !shared {
				// Disjoint pools: offset each core's pages.
				id += core.PageID(c) * core.PageID(pages)
			}
			seq[j] = remap(id)
		}
		rs[c] = seq
	}
	return core.Instance{R: rs, P: core.Params{K: k, Tau: tau}}
}

// heapInstance generates instance i of the heap-order corpus: core
// counts p, fetch delays τ, cores that are empty or much shorter than
// their neighbours (so cores leave the service heap at different
// times), shared page pools (joins on in-flight pages) in odd
// instances, and sparse IDs in every fourth.
func heapInstance(rng *rand.Rand, i, p, tau int) core.Instance {
	shared := i%2 == 1
	sparse := i%4 == 2
	pages := 2 + rng.Intn(12)
	rs := make(core.RequestSet, p)
	for c := range rs {
		n := 0
		switch rng.Intn(4) {
		case 0: // empty core
		case 1:
			n = 1 + rng.Intn(8)
		default:
			n = 40 + rng.Intn(200)
		}
		if c == p-1 && rs.TotalLen() == 0 {
			n = 1 + rng.Intn(40) // at least one request
		}
		seq := make(core.Sequence, n)
		for j := range seq {
			id := core.PageID(rng.Intn(pages))
			if !shared {
				id += core.PageID(c * pages)
			}
			if sparse {
				id = 50000000 + id*1000003
			}
			seq[j] = id
		}
		rs[c] = seq
	}
	return core.Instance{R: rs, P: core.Params{K: p + rng.Intn(2*p+4), Tau: tau}}
}

// checkDenseMatchesReference runs one strategy on in through the dense
// engine (sim.Run) and the map-based reference engine
// (sim.RunReference) and requires identical results and identical event
// streams — whole events, VictimCore included. It returns the stream.
func checkDenseMatchesReference(t *testing.T, label string, in core.Instance, mk func() sim.Strategy) []sim.Event {
	t.Helper()
	var gotEv, wantEv []sim.Event
	got, err := sim.Run(in, mk(), func(e sim.Event) { gotEv = append(gotEv, e) })
	if err != nil {
		t.Fatalf("%s: dense: %v", label, err)
	}
	want, err := sim.RunReference(in, mk(), func(e sim.Event) { wantEv = append(wantEv, e) })
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: results differ:\ndense     %+v\nreference %+v", label, got, want)
	}
	if len(gotEv) != len(wantEv) {
		t.Fatalf("%s: %d events vs %d in reference", label, len(gotEv), len(wantEv))
	}
	for j := range gotEv {
		if gotEv[j] != wantEv[j] {
			t.Fatalf("%s: event %d differs:\ndense     %+v\nreference %+v",
				label, j, gotEv[j], wantEv[j])
		}
	}
	return gotEv
}

// TestDenseMatchesReference replays randomized instances through both the
// dense-ID engine (sim.Run) and the retained map-based reference engine
// (sim.RunReference) and requires identical results and identical event
// streams — same times, cores, pages, fault/join flags, victims and
// victims' holders, in the same order. This is the event-for-event proof
// that renumbering, the flat ground-truth tables and the heap-ordered
// service are invisible to strategies and observers: the reference
// finds each step's cores by scanning all of them.
func TestDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		in := randomInstance(rng, i)
		p := in.R.NumCores()
		for si, mk := range diffStrategies(in.P.K, p) {
			label := fmt.Sprintf("inst=%d strat=%d (p=%d K=%d tau=%d)", i, si, p, in.P.K, in.P.Tau)
			checkDenseMatchesReference(t, label, in, mk)
		}
	}

	// The heap-order corpus, with Ticker strategies (FWF's flushes and
	// FairShare's donor ticks) on top of the differential set. The
	// features it exists for must actually occur.
	seen := map[string]int{}
	for _, p := range []int{1, 3, 5, 9, 17} {
		for _, tau := range []int{0, 1, 8} {
			for i := 0; i < 8; i++ {
				in := heapInstance(rng, i, p, tau)
				strats := append(diffStrategies(in.P.K, p),
					func() sim.Strategy { return policy.NewFWF() },
					func() sim.Strategy { return policy.NewFairShare(8) })
				for si, mk := range strats {
					label := fmt.Sprintf("heap inst=%d strat=%d (p=%d K=%d tau=%d)", i, si, p, in.P.K, tau)
					for _, e := range checkDenseMatchesReference(t, label, in, mk) {
						switch {
						case e.Join:
							seen["joins"]++
						case e.Tick && e.Donor:
							seen["donor ticks"]++
						case e.Tick:
							seen["flush ticks"]++
						case e.Victim != core.NoPage && e.VictimCore != e.Core:
							seen["cross-core victims"]++
						}
					}
				}
				for _, seq := range in.R {
					if len(seq) == 0 {
						seen["empty cores"]++
					}
				}
			}
		}
	}
	for _, f := range []string{"joins", "donor ticks", "flush ticks", "cross-core victims", "empty cores"} {
		if seen[f] == 0 {
			t.Errorf("the heap-order corpus produced no %s", f)
		}
	}
}

// TestRunnerReuse checks that a Runner replayed over the same instance
// with fresh strategies produces identical results every time — i.e. the
// per-run reset fully clears ground truth, clocks, and oracle pointers.
func TestRunnerReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		in := randomInstance(rng, i)
		p := in.R.NumCores()
		rn, err := sim.NewRunner(in.R)
		if err != nil {
			t.Fatal(err)
		}
		for si, mk := range diffStrategies(in.P.K, p) {
			var first sim.Result
			for rep := 0; rep < 3; rep++ {
				res, err := rn.Run(in.P, mk(), nil)
				if err != nil {
					t.Fatalf("inst=%d strat=%d rep=%d: %v", i, si, rep, err)
				}
				if rep == 0 {
					first = res
				} else if !reflect.DeepEqual(res, first) {
					t.Fatalf("inst=%d strat=%d rep=%d: result drifted:\nfirst %+v\nnow   %+v",
						i, si, rep, first, res)
				}
			}
		}
	}
}

// TestRunnerRebindParams checks that one Runner can sweep parameters:
// running (K,τ) grids through a single Runner must match fresh sim.Run
// calls point for point.
func TestRunnerRebindParams(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in := randomInstance(rng, 1) // non-sparse, p∈1..3
	rn, err := sim.NewRunner(in.R)
	if err != nil {
		t.Fatal(err)
	}
	p := in.R.NumCores()
	for k := p; k < p+6; k++ {
		for tau := 0; tau < 4; tau++ {
			params := core.Params{K: k, Tau: tau}
			got, err := rn.Run(params, policy.NewShared(lru()), nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Run(core.Instance{R: in.R, P: params}, policy.NewShared(lru()), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("K=%d tau=%d: runner %+v vs fresh %+v", k, tau, got, want)
			}
		}
	}
}

// FuzzDenseMatchesReference is the property half of the differential
// suite: for any generator seed and any schedule choice — none, or one
// of the elasticSchedules — the dense engine must reproduce the
// reference engine's result and event stream exactly. Elastic draws add
// the CapacityAware strategy set to the differential one.
func FuzzDenseMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 17, 42, 1 << 40} {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, sched uint8) {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, int(uint64(seed)%6))
		p := in.R.NumCores()
		strats := diffStrategies(in.P.K, p)
		scheds := elasticSchedules(t, in.P.K, p)
		if i := int(sched) % (len(scheds) + 1); i > 0 {
			in.P.Capacity = scheds[i-1]
			strats = append(strats, elasticStrategies(in.P.K, p)...)
		}
		for si, mk := range strats {
			var gotEv, wantEv []sim.Event
			got, gotErr := sim.Run(in, mk(), func(e sim.Event) { gotEv = append(gotEv, e) })
			want, wantErr := sim.RunReference(in, mk(), func(e sim.Event) { wantEv = append(wantEv, e) })
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("seed=%d sched=%d strat=%d: errors differ: dense %v, reference %v", seed, sched, si, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d sched=%d strat=%d: %+v vs %+v", seed, sched, si, got, want)
			}
			if !reflect.DeepEqual(gotEv, wantEv) {
				t.Fatalf("seed=%d sched=%d strat=%d: event streams differ", seed, sched, si)
			}
		}
	})
}
