package telemetry_test

import (
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/telemetry"
)

// Collector.Observe runs once per served request and is annotated
// //mcpaging:hotpath; the hit path must stay allocation-free so that
// attaching telemetry does not perturb the engine it measures.
func TestObserveHitPathZeroAllocs(t *testing.T) {
	c := telemetry.New(telemetry.Config{
		Cores:  2,
		Params: core.Params{K: 8, Tau: 4},
		// One huge window: the test exercises the per-event path, not
		// window rotation (which legitimately allocates per window).
		Window: 1 << 40,
	})
	ev := sim.Event{Time: 0, Core: 1, Index: 0, Page: 3, Victim: core.NoPage, VictimCore: -1}
	c.Observe(ev)
	allocs := testing.AllocsPerRun(1000, func() {
		ev.Time++
		ev.Index++
		c.Observe(ev)
	})
	if allocs != 0 {
		t.Fatalf("Observe hit path: %v allocs/op, want 0", allocs)
	}
}

// The fault path — the victim's cell moved off its holder's share,
// the faulting core's share grown — must be allocation-free too.
func TestObserveFaultPathZeroAllocs(t *testing.T) {
	const k, cores = 64, 4
	c := telemetry.New(telemetry.Config{
		Cores:  cores,
		Params: core.Params{K: k, Tau: 4},
		Window: 1 << 40,
	})
	// Core j's private pages sit at j<<16 + x, as mcservd places them.
	page := func(i int) core.PageID { return core.PageID((i%cores)<<16 + i/cores) }
	i := 0
	fault := func() {
		ev := sim.Event{Time: int64(i), Core: i % cores, Index: i / cores, Page: page(i), Fault: true, Victim: core.NoPage, VictimCore: -1}
		if i >= k {
			ev.Victim, ev.VictimCore = page(i-k), (i-k)%cores
		}
		c.Observe(ev)
		i++
	}
	for i < 4*k {
		fault()
	}
	if allocs := testing.AllocsPerRun(10000, fault); allocs != 0 {
		t.Fatalf("Observe fault/evict path: %v allocs/op, want 0", allocs)
	}
}
