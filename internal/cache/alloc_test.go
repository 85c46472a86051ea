package cache_test

import (
	"runtime"
	"testing"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/workload"
)

// The recency-ordered policies back the simulator's hot loop; their
// steady-state operations are annotated //mcpaging:hotpath and must not
// allocate once the dense node array is warm. These tests pin that
// invariant so a regression fails CI rather than only showing up in
// benchmark numbers.

// warmRecency fills a policy with pages 0..n-1 so the dense array is
// grown and every subsequent operation stays inside it.
func warmRecency(p cache.Policy, n int) {
	for i := 0; i < n; i++ {
		p.Insert(core.PageID(i), cache.Access{})
	}
}

func TestRecencyPoliciesSteadyStateZeroAllocs(t *testing.T) {
	policies := []struct {
		name string
		p    cache.Policy
	}{
		{"LRU", cache.NewLRU()},
		{"MRU", cache.NewMRU()},
		{"FIFO", cache.NewFIFO()},
	}
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			warmRecency(tc.p, 64)
			allocs := testing.AllocsPerRun(1000, func() {
				v, ok := tc.p.Evict(nil)
				if !ok {
					t.Fatal("evict failed on non-empty policy")
				}
				tc.p.Insert(v, cache.Access{})
				tc.p.Touch(v, cache.Access{})
			})
			if allocs != 0 {
				t.Fatalf("%s steady-state evict/insert/touch: %v allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

func TestRecencyListHitPathZeroAllocs(t *testing.T) {
	l := cache.NewLRU()
	warmRecency(l, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		// The hit path of the serve loop: Contains + Touch.
		if !l.Contains(17) {
			t.Fatal("warmed page missing")
		}
		l.Touch(17, cache.Access{})
	})
	if allocs != 0 {
		t.Fatalf("LRU hit path: %v allocs/op, want 0", allocs)
	}
}

// TestServedLRUAllocBound pins the footprint of the paged per-page
// tables on the served cache-miss job: a fresh S(LRU), built the way
// mcservd builds one per job, runs 4×64K Zipf requests whose 1024 pages
// per core sit in the namespaces j·65536+x, at K 256 and τ 8, on a warm
// Runner. The run, strategy construction included, allocates at most
// 256 KB; one list node per possible page ID would take 3.7 MB.
func TestServedLRUAllocBound(t *testing.T) {
	rs, err := workload.Generate(workload.Spec{Kind: workload.Zipf, Cores: 4, Length: 64 << 10, Pages: 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{K: 256, Tau: 8}
	rn, err := sim.NewRunner(rs)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		st, err := strategyspec.Build("S(LRU)", rs, params.K, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rn.Run(params, st, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the Runner's arrays
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Fatalf("fresh S(LRU) over the served job allocated %d KB, want ≤ 256 KB", got>>10)
	}
}
