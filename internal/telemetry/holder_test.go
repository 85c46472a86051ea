package telemetry

import (
	"math/rand"
	"reflect"
	"testing"

	"mcpaging/internal/capacity"
	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/workload"
)

// TestHolderTableMatchesMap drives the table and a Go map through the
// same random puts and removes — over dense IDs, per-core namespaces and
// IDs that share their low bits — from a table far too small to start
// with, so growth, wrap-around probe runs and backward shifts all occur.
func TestHolderTableMatchesMap(t *testing.T) {
	keys := map[string]func(r *rand.Rand) core.PageID{
		"dense":      func(r *rand.Rand) core.PageID { return core.PageID(r.Intn(300)) },
		"namespaced": func(r *rand.Rand) core.PageID { return core.PageID(r.Intn(4)<<16 + r.Intn(80)) },
		"strided":    func(r *rand.Rand) core.PageID { return core.PageID(r.Intn(200) << 20) },
	}
	for name, key := range keys {
		r := rand.New(rand.NewSource(1))
		tab := newHolderTable(1)
		ref := map[core.PageID]int32{}
		for op := 0; op < 200000; op++ {
			p := key(r)
			if r.Intn(2) == 0 {
				c := int32(r.Intn(4))
				tab.put(p, c)
				ref[p] = c
			} else {
				got, ok := tab.remove(p)
				want, wok := ref[p]
				delete(ref, p)
				if ok != wok || got != want {
					t.Fatalf("%s op %d: remove(%d) = %d,%v, map has %d,%v", name, op, p, got, ok, want, wok)
				}
			}
			if tab.n != len(ref) {
				t.Fatalf("%s op %d: %d entries, map has %d", name, op, tab.n, len(ref))
			}
		}
		for p, want := range ref {
			if got, ok := tab.remove(p); !ok || got != want {
				t.Fatalf("%s: final remove(%d) = %d,%v, want %d", name, p, got, ok, want)
			}
		}
		if _, ok := tab.remove(core.NoPage); ok {
			t.Fatalf("%s: NoPage found", name)
		}
	}
}

// mapCollector is the map-based page-holder accounting the table
// replaced, kept as the test oracle: the branches of Observe that read
// or write the holder, over a map[core.PageID]int32.
type mapCollector struct {
	holder                    map[core.PageID]int32
	occ, donated, taken       []int64
	partChanges, volEvictions int64
}

func newMapCollector(cores int) *mapCollector {
	return &mapCollector{
		holder: map[core.PageID]int32{},
		occ:    make([]int64, cores), donated: make([]int64, cores), taken: make([]int64, cores),
	}
}

func (c *mapCollector) observe(e sim.Event) {
	if e.Capacity {
		if e.Tick {
			if h, ok := c.holder[e.Page]; ok {
				c.occ[h]--
				delete(c.holder, e.Page)
			}
		}
		return
	}
	if e.Tick {
		if h, ok := c.holder[e.Page]; ok {
			c.occ[h]--
			delete(c.holder, e.Page)
			if e.Donor {
				c.donated[h]++
				c.partChanges++
			}
		}
		c.volEvictions++
		return
	}
	if e.Core < 0 || e.Core >= len(c.occ) || !e.Fault || e.Join {
		return
	}
	if e.Victim != core.NoPage {
		if h, ok := c.holder[e.Victim]; ok {
			c.occ[h]--
			delete(c.holder, e.Victim)
			if int(h) != e.Core {
				c.donated[h]++
				c.taken[e.Core]++
				c.partChanges++
			}
		}
	}
	c.holder[e.Page] = int32(e.Core)
	c.occ[e.Core]++
}

// record runs one instance and returns its event stream.
func record(t testing.TB, rs core.RequestSet, spec string, params core.Params) []sim.Event {
	t.Helper()
	st, err := strategyspec.Build(spec, rs, params.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	var evs []sim.Event
	if _, err := sim.Run(core.Instance{R: rs, P: params}, st, func(e sim.Event) { evs = append(evs, e) }); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestCollectorMatchesMapHolder replays recorded runs through the
// Collector and the map-based oracle and compares the holder-derived
// state after every event: shared pages with joins (a shared pool and a
// long fetch delay), donor ticks (dynamic partitions), capacity sheds
// (a shrinking and a periodic schedule), and cross-core victims.
func TestCollectorMatchesMapHolder(t *testing.T) {
	shared, err := workload.Generate(workload.Spec{Cores: 4, Length: 3000, Pages: 64, Kind: workload.Zipf,
		SharedFrac: 0.4, SharedPages: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	private, err := workload.Generate(workload.Spec{Cores: 3, Length: 3000, Pages: 48, Kind: workload.Phased, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sched := func(spec string, k int) core.CapacitySchedule {
		s, err := capacity.ParseSchedule(spec, k)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name    string
		rs      core.RequestSet
		spec    string
		params  core.Params
		feature string // the event kind the case exists for
	}{
		{"shared-joins", shared, "S(LRU)", core.Params{K: 24, Tau: 12}, "joins"},
		{"fair-donors", private, "dP[fair](LRU)", core.Params{K: 32, Tau: 2}, "donors"},
		{"ucp-donors", shared, "dP[ucp](LRU)", core.Params{K: 32, Tau: 2}, "donors"},
		{"capacity-step", shared, "S(LRU)", core.Params{K: 40, Tau: 3, Capacity: sched("step(to=25%,at=2000)", 40)}, "sheds"},
		{"capacity-periodic", private, "sP[even](LRU)", core.Params{K: 36, Tau: 1, Capacity: sched("periodic(lo=30%,period=700)", 36)}, "sheds"},
	}
	for _, tc := range cases {
		evs := record(t, tc.rs, tc.spec, tc.params)
		c := New(Config{Cores: tc.rs.NumCores(), Params: tc.params, Window: 64})
		ref := newMapCollector(tc.rs.NumCores())
		seen := map[string]int{}
		for i, e := range evs {
			c.Observe(e)
			ref.observe(e)
			switch {
			case e.Join:
				seen["joins"]++
			case e.Tick && e.Donor:
				seen["donors"]++
			case e.Tick && e.Capacity:
				seen["sheds"]++
			}
			tot := c.Totals()
			if c.holder.n != len(ref.holder) || !reflect.DeepEqual(tot.Occupancy, ref.occ) ||
				!reflect.DeepEqual(tot.DonatedEvictions, ref.donated) || !reflect.DeepEqual(tot.TakenCells, ref.taken) ||
				tot.PartitionChanges != ref.partChanges || tot.VoluntaryEvictions != ref.volEvictions {
				t.Fatalf("%s: event %d (%+v): collector and map oracle disagree", tc.name, i, e)
			}
		}
		for p, want := range ref.holder {
			if got, ok := c.holder.remove(p); !ok || got != want {
				t.Fatalf("%s: page %d held by %d,%v, oracle says %d", tc.name, p, got, ok, want)
			}
		}
		if seen[tc.feature] == 0 {
			t.Errorf("%s: the run produced no %s", tc.name, tc.feature)
		}
	}
}
