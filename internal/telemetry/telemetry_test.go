package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/sim"
)

// feed builds the canonical hand-checked event sequence used by the
// collector tests: two cores, τ=2, window 10.
//
//	t=0  core 0 faults on page 1 (free cell)
//	t=0  core 1 faults on page 5 (free cell)
//	t=3  core 0 hits page 1
//	t=4  core 1 faults on page 6, evicting core 0's page 1 (donor!)
//	t=12 core 0 faults on page 2 (free cell)      — second window
//	t=25 tick: page 5 voluntarily evicted          — third window
func feed(c *Collector) {
	c.Observe(sim.Event{Time: 0, Core: 0, Index: 0, Page: 1, Fault: true, Victim: core.NoPage, VictimCore: -1})
	c.Observe(sim.Event{Time: 0, Core: 1, Index: 0, Page: 5, Fault: true, Victim: core.NoPage, VictimCore: -1})
	c.Observe(sim.Event{Time: 3, Core: 0, Index: 1, Page: 1, Victim: core.NoPage, VictimCore: -1})
	c.Observe(sim.Event{Time: 4, Core: 1, Index: 1, Page: 6, Fault: true, Victim: 1, VictimCore: 0})
	c.Observe(sim.Event{Time: 12, Core: 0, Index: 2, Page: 2, Fault: true, Victim: core.NoPage, VictimCore: -1})
	c.Observe(sim.Event{Time: 25, Core: -1, Index: -1, Page: 5, Tick: true, Victim: 5, VictimCore: 1})
}

func testConfig() Config {
	return Config{Cores: 2, Params: core.Params{K: 4, Tau: 2}, Window: 10}
}

func finished(t *testing.T) *Collector {
	t.Helper()
	c := New(testConfig())
	feed(c)
	c.Finish(sim.Result{
		Faults: []int64{2, 2}, Hits: []int64{1, 0},
		Finish: []int64{15, 7}, Makespan: 28,
	})
	return c
}

func TestCollectorWindows(t *testing.T) {
	c := finished(t)
	wins := c.Windows()
	if len(wins) != 3 {
		t.Fatalf("got %d windows, want 3 (makespan 28, window 10)", len(wins))
	}
	w0 := wins[0]
	if w0.Start != 0 || w0.End != 10 {
		t.Fatalf("window 0 bounds [%d,%d), want [0,10)", w0.Start, w0.End)
	}
	// Window 0: core 0 — 1 fault, 1 hit; core 1 — 2 faults.
	if w0.Cores[0].Requests != 2 || w0.Cores[0].Faults != 1 || w0.Cores[0].Hits != 1 {
		t.Fatalf("window 0 core 0 = %+v", w0.Cores[0])
	}
	if w0.Cores[1].Requests != 2 || w0.Cores[1].Faults != 2 {
		t.Fatalf("window 0 core 1 = %+v", w0.Cores[1])
	}
	// Occupancy at close of window 0: core 0 lost page 1 to core 1's
	// fault (0 cells); core 1 holds pages 5 and 6.
	if w0.Cores[0].Occupancy != 0 || w0.Cores[1].Occupancy != 2 {
		t.Fatalf("window 0 occupancy = %d/%d, want 0/2",
			w0.Cores[0].Occupancy, w0.Cores[1].Occupancy)
	}
	// τ-debt at close: 1 fault × τ=2 and 2 faults × τ=2.
	if w0.Cores[0].TauDebt != 2 || w0.Cores[1].TauDebt != 4 {
		t.Fatalf("window 0 tau debt = %d/%d, want 2/4",
			w0.Cores[0].TauDebt, w0.Cores[1].TauDebt)
	}
	if w0.PartitionChanges != 1 {
		t.Fatalf("window 0 partition changes = %d, want 1 (the donor eviction)", w0.PartitionChanges)
	}
	// Window 1: only core 0's fault at t=12; occupancy 1/2.
	w1 := wins[1]
	if w1.Cores[0].Requests != 1 || w1.Cores[0].Faults != 1 || w1.Cores[1].Requests != 0 {
		t.Fatalf("window 1 = %+v", w1)
	}
	if w1.Cores[0].Occupancy != 1 || w1.Cores[1].Occupancy != 2 {
		t.Fatalf("window 1 occupancy = %d/%d, want 1/2",
			w1.Cores[0].Occupancy, w1.Cores[1].Occupancy)
	}
	// Window 2: empty of requests, but the tick drops core 1 to 1 cell.
	w2 := wins[2]
	if w2.Cores[0].Requests != 0 || w2.Cores[1].Requests != 0 {
		t.Fatalf("window 2 should be requestless: %+v", w2)
	}
	if w2.VoluntaryEvictions != 1 || w2.Cores[1].Occupancy != 1 {
		t.Fatalf("window 2 tick not applied: vol=%d occ=%d", w2.VoluntaryEvictions, w2.Cores[1].Occupancy)
	}
}

func TestCollectorTotals(t *testing.T) {
	c := finished(t)
	tot := c.Totals()
	if tot.Requests[0] != 3 || tot.Requests[1] != 2 {
		t.Fatalf("requests = %v", tot.Requests)
	}
	if tot.Faults[0] != 2 || tot.Faults[1] != 2 || tot.Hits[0] != 1 {
		t.Fatalf("faults = %v hits = %v", tot.Faults, tot.Hits)
	}
	if tot.DonatedEvictions[0] != 1 || tot.TakenCells[1] != 1 || tot.PartitionChanges != 1 {
		t.Fatalf("donor accounting: donated=%v taken=%v changes=%d",
			tot.DonatedEvictions, tot.TakenCells, tot.PartitionChanges)
	}
	if tot.VoluntaryEvictions != 1 {
		t.Fatalf("voluntary evictions = %d, want 1", tot.VoluntaryEvictions)
	}
	if tot.Occupancy[0] != 1 || tot.Occupancy[1] != 1 {
		t.Fatalf("final occupancy = %v, want [1 1]", tot.Occupancy)
	}
	if tot.TauDebt[0] != 4 || tot.TauDebt[1] != 4 {
		t.Fatalf("tau debt = %v, want [4 4]", tot.TauDebt)
	}
	if tot.Windows != 3 || tot.DroppedWindows != 0 {
		t.Fatalf("windows = %d dropped = %d", tot.Windows, tot.DroppedWindows)
	}
}

// TestCollectorObserver drives the collector through the sim.Observer
// adapter (the way the CLIs attach it) and checks Result round-trips
// what Finish recorded.
func TestCollectorObserver(t *testing.T) {
	c := New(testConfig())
	obs := c.Observer()
	obs(sim.Event{Time: 0, Core: 0, Index: 0, Page: 1, Fault: true, Victim: core.NoPage, VictimCore: -1})
	obs(sim.Event{Time: 1, Core: 1, Index: 0, Page: 2, Fault: true, Victim: core.NoPage, VictimCore: -1})
	res := sim.Result{Faults: []int64{1, 1}, Finish: []int64{3, 4}, Makespan: 5}
	c.Finish(res)
	if got := c.Result(); got.Makespan != res.Makespan || got.Finish[1] != 4 {
		t.Fatalf("Result() = %+v, want the finished result %+v", got, res)
	}
	tot := c.Totals()
	if tot.Faults[0] != 1 || tot.Faults[1] != 1 {
		t.Fatalf("observer-fed totals = %v", tot.Faults)
	}
	// Finish is idempotent: a second call must not extend the series.
	n := len(c.Windows())
	c.Finish(sim.Result{Makespan: 500})
	if len(c.Windows()) != n || c.Result().Makespan != 5 {
		t.Fatal("second Finish mutated the collector")
	}
}

func TestCollectorRing(t *testing.T) {
	cfg := testConfig()
	cfg.MaxWindows = 2
	c := New(cfg)
	feed(c)
	c.Finish(sim.Result{Makespan: 28})
	wins := c.Windows()
	if len(wins) != 2 {
		t.Fatalf("ring retained %d windows, want 2", len(wins))
	}
	if wins[0].Index != 1 || wins[1].Index != 2 {
		t.Fatalf("ring kept windows %d,%d — want the newest (1,2)", wins[0].Index, wins[1].Index)
	}
	if tot := c.Totals(); tot.Windows != 3 || tot.DroppedWindows != 1 {
		t.Fatalf("windows=%d dropped=%d, want 3/1", tot.Windows, tot.DroppedWindows)
	}
}

func TestEventJSONL(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig()
	cfg.Events = &buf
	c := New(cfg)
	feed(c)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d event lines, want 6", len(lines))
	}
	if lines[0] != `{"t":0,"core":0,"i":0,"page":1,"fault":true}` {
		t.Fatalf("line 0 = %s", lines[0])
	}
	if lines[3] != `{"t":4,"core":1,"i":1,"page":6,"fault":true,"victim":1}` {
		t.Fatalf("line 3 = %s", lines[3])
	}
	if lines[5] != `{"t":25,"tick":true,"page":5}` {
		t.Fatalf("line 5 = %s", lines[5])
	}
}

// TestDonorTicks: a donor tick — a repartitioning strategy shedding a
// cell toward new quotas — counts as a voluntary eviction AND a
// partition change attributed to the holding core; a plain tick (e.g.
// FWF's flush) counts only as a voluntary eviction.
func TestDonorTicks(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig()
	cfg.Events = &buf
	c := New(cfg)
	c.Observe(sim.Event{Time: 0, Core: 0, Index: 0, Page: 1, Fault: true, Victim: core.NoPage, VictimCore: -1})
	c.Observe(sim.Event{Time: 1, Core: 1, Index: 0, Page: 2, Fault: true, Victim: core.NoPage, VictimCore: -1})
	c.Observe(sim.Event{Time: 2, Core: -1, Index: -1, Page: 1, Tick: true, Donor: true, Victim: 1, VictimCore: 0})
	c.Observe(sim.Event{Time: 3, Core: -1, Index: -1, Page: 2, Tick: true, Victim: 2, VictimCore: 1})
	c.Finish(sim.Result{Makespan: 4})
	tot := c.Totals()
	if tot.VoluntaryEvictions != 2 {
		t.Fatalf("voluntary evictions = %d, want 2", tot.VoluntaryEvictions)
	}
	if tot.PartitionChanges != 1 {
		t.Fatalf("partition changes = %d, want 1 (only the donor tick)", tot.PartitionChanges)
	}
	if tot.DonatedEvictions[0] != 1 || tot.DonatedEvictions[1] != 0 {
		t.Fatalf("donated = %v, want [1 0]", tot.DonatedEvictions)
	}
	if tot.Occupancy[0] != 0 || tot.Occupancy[1] != 0 {
		t.Fatalf("occupancy = %v, want [0 0]", tot.Occupancy)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[2] != `{"t":2,"tick":true,"page":1,"donor":true}` {
		t.Fatalf("donor tick line = %s", lines[2])
	}
	if lines[3] != `{"t":3,"tick":true,"page":2}` {
		t.Fatalf("plain tick line = %s", lines[3])
	}
}

func TestExportWriters(t *testing.T) {
	c := finished(t)
	var jsonl bytes.Buffer
	if err := WriteWindowsJSONL(&jsonl, c); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(jsonl.String(), "\n"); n != 3 {
		t.Fatalf("windows.jsonl has %d lines, want 3", n)
	}
	var csv bytes.Buffer
	if err := WriteMatrixCSV(&csv, c, c.matrices()["fault_rate"]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if len(lines) != 4 || lines[0] != "window,start,end,core0,core1" {
		t.Fatalf("fault_rate.csv = %q", csv.String())
	}
	if lines[1] != "0,0,10,0.5,1" {
		t.Fatalf("fault_rate row 0 = %q", lines[1])
	}
	var sum bytes.Buffer
	if err := WriteSummaryCSV(&sum, c); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sum.String(), "\n"); n != 3 {
		t.Fatalf("summary.csv has %d lines, want header+2", n)
	}
	var prom bytes.Buffer
	if err := WritePrometheus(&prom, c); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`mcpaging_faults_total{core="0"} 2`,
		`mcpaging_partition_changes_total 1`,
		`mcpaging_voluntary_evictions_total 1`,
		"mcpaging_makespan 28",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("prometheus snapshot missing %q:\n%s", want, prom.String())
		}
	}
}

func TestSanitizeLabel(t *testing.T) {
	for in, want := range map[string]string{
		"S(LRU)":           "S-LRU",
		"dP[fair](LRU)":    "dP-fair-LRU",
		"sP[4 4](LRU)":     "sP-4-4-LRU",
		"already_safe-1.0": "already_safe-1.0",
		"((((":             "run",
	} {
		if got := SanitizeLabel(in); got != want {
			t.Errorf("SanitizeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}
