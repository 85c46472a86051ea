// Package telemetry turns the simulator's Observer event stream into
// windowed per-core time series and end-of-run counters, and exports
// them as JSONL window streams, CSV matrices for plotting, and a
// Prometheus text-format snapshot, together with a run manifest that
// makes every export reproducible byte for byte.
//
// The package is strictly a consumer of sim.Event values: attaching a
// Collector costs one closure call per event, and not attaching one
// costs nothing — the simulator's nil-observer fast path is untouched.
// Memory is bounded by O(cores × retained windows + K): the collector
// keeps per-core accumulators for the window being filled, a ring of at
// most MaxWindows closed windows — older windows are dropped (and
// counted) rather than growing without bound — and one page → core
// entry per cached cell.
//
// Timeline semantics: simulation time is split into fixed-width windows
// [i·W, (i+1)·W). A window closes when the first event at or past its
// end arrives (gap windows in between are emitted empty, carrying the
// then-current occupancy and τ-debt, so exported matrices are dense in
// time) and finally when Finish flushes the tail of the run.
package telemetry

import (
	"io"

	"mcpaging/internal/core"
	"mcpaging/internal/metrics"
	"mcpaging/internal/sim"
)

// DefaultWindow is the window width, in simulation time steps, used when
// Config.Window is zero.
const DefaultWindow int64 = 1024

// DefaultMaxWindows is the closed-window ring capacity used when
// Config.MaxWindows is zero.
const DefaultMaxWindows = 1 << 16

// maxPresize caps the residency New sizes the page-holder table for; a
// larger cache grows the table as it fills.
const maxPresize = 1 << 16

// Config parameterises a Collector.
type Config struct {
	// Cores is the number of cores (p) of the runs being observed.
	Cores int
	// Params are the model parameters of the run; Tau is needed for the
	// τ-debt series.
	Params core.Params
	// Window is the window width in time steps (0 = DefaultWindow).
	Window int64
	// MaxWindows bounds how many closed windows are retained
	// (0 = DefaultMaxWindows). When exceeded, the oldest windows are
	// dropped and counted in Totals.DroppedWindows.
	MaxWindows int
	// Events, when non-nil, receives every raw event as one JSONL line,
	// as it arrives. The collector does not retain raw events.
	Events io.Writer
}

// CoreWindow is one core's slice of one window.
type CoreWindow struct {
	// Requests, Faults, Hits and Joins count this core's events whose
	// service time falls inside the window. Joins are counted in Faults
	// too, mirroring sim.Result.
	Requests int64 `json:"requests"`
	Faults   int64 `json:"faults"`
	Hits     int64 `json:"hits"`
	Joins    int64 `json:"joins"`
	// Occupancy is the number of cache cells attributed to the core at
	// window close: cells the core fetched into and that have not since
	// been evicted. In-flight cells count toward the fetching core.
	Occupancy int64 `json:"occupancy"`
	// TauDebt is the cumulative fault delay (faults so far × τ) the core
	// has accrued by window close — the "delay so far" of the paper's
	// additive-τ model.
	TauDebt int64 `json:"tau_debt"`
}

// Window is one closed telemetry window.
type Window struct {
	// Index is the window number; the window covers [Start, End).
	Index int64 `json:"window"`
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Cores holds the per-core series, indexed by core.
	Cores []CoreWindow `json:"cores"`
	// FaultJain is Jain's fairness index of the per-core fault counts of
	// this window (1 = perfectly even, 1/p = one core takes all).
	FaultJain float64 `json:"fault_jain"`
	// PartitionChanges counts cell movements between cores in the
	// window: faults whose victim was held by a different core, plus
	// donor ticks — voluntary evictions a dynamic partition controller
	// issues when shedding toward new quotas (sim.Event.Donor).
	PartitionChanges int64 `json:"partition_changes"`
	// VoluntaryEvictions counts Ticker evictions in the window.
	VoluntaryEvictions int64 `json:"voluntary_evictions"`
	// CapacityChanges counts elastic-capacity announcements in the
	// window and CapacityEvictions the capacity-pressure sheds that
	// drained the cache to a smaller K(t). CapacityK is the capacity in
	// force at window close. All three are zero — and omitted, keeping
	// fixed-capacity exports byte-identical — unless the run carries a
	// non-constant schedule.
	CapacityChanges   int64 `json:"capacity_changes,omitempty"`
	CapacityEvictions int64 `json:"capacity_evictions,omitempty"`
	CapacityK         int64 `json:"capacity_k,omitempty"`
}

// Totals is the end-of-run counter snapshot, per core where sliced.
type Totals struct {
	Requests []int64
	Faults   []int64
	Hits     []int64
	Joins    []int64
	// DonatedEvictions[c] counts evictions where core c gave up a cell
	// to the rest of the system: fault victims it held while a different
	// core faulted, plus donor ticks shed by a repartitioning
	// controller. TakenCells[c] counts the cells core c took from other
	// cores on faults (donor ticks have no identified recipient).
	DonatedEvictions []int64
	TakenCells       []int64
	// Occupancy and TauDebt are the final values of the corresponding
	// window series.
	Occupancy []int64
	TauDebt   []int64
	// PartitionChanges is the whole-run cross-core eviction count;
	// VoluntaryEvictions the whole-run Ticker eviction count.
	PartitionChanges   int64
	VoluntaryEvictions int64
	// CapacityChanges counts K(t) announcements over the run and
	// CapacityEvictions the capacity-pressure sheds (kept out of
	// VoluntaryEvictions, mirroring sim.Result). MinCapacity and
	// FinalCapacity track the schedule actually seen; all four are zero
	// for fixed-capacity runs.
	CapacityChanges   int64
	CapacityEvictions int64
	MinCapacity       int64
	FinalCapacity     int64
	// FaultJain is Jain's index of the whole-run per-core fault counts.
	FaultJain float64
	// Windows counts all closed windows; DroppedWindows how many of them
	// aged out of the retention ring.
	Windows        int64
	DroppedWindows int64
}

// Collector accumulates windowed telemetry from a simulation's event
// stream. It is not safe for concurrent use; attach one collector per
// run (the simulator delivers events from a single goroutine).
type Collector struct {
	cores  int
	tau    int64
	window int64
	maxWin int

	cur      Window // window currently being filled
	curJain  []int64
	anyEvent bool

	holder holderTable // cached page → core whose fetch brought it in
	occ    []int64     // per-core cells attributed

	// Observe counts into the open window only; closeCur folds each
	// closed window into these run totals, and Totals adds the open one.
	cum                       []CoreWindow // per core: Requests, Faults, Hits, Joins
	partChanges, volEvictions int64
	capChanges, capEvictions  int64
	donated, taken            []int64

	elastic    bool  // run carries a non-constant schedule
	curK, minK int64 // K(t) in force / minimum seen

	ring      []Window
	ringStart int
	closed    int64
	dropped   int64

	events   io.Writer
	evBuf    []byte
	finished bool
	res      sim.Result
}

// New returns a Collector for runs with cfg.Cores cores.
func New(cfg Config) *Collector {
	w := cfg.Window
	if w <= 0 {
		w = DefaultWindow
	}
	mw := cfg.MaxWindows
	if mw <= 0 {
		mw = DefaultMaxWindows
	}
	p := cfg.Cores
	c := &Collector{
		cores:   p,
		tau:     int64(cfg.Params.Tau),
		window:  w,
		maxWin:  mw,
		curJain: make([]int64, p),
		holder:  newHolderTable(min(cfg.Params.K, maxPresize) + p),
		occ:     make([]int64, p),
		cum:     make([]CoreWindow, p),
		donated: make([]int64, p),
		taken:   make([]int64, p),
		events:  cfg.Events,
	}
	if cs := cfg.Params.Capacity; cs != nil && !cs.Constant() {
		c.elastic = true
		c.curK = int64(cfg.Params.K)
		c.minK = c.curK
	}
	c.resetCur(0)
	return c
}

// Observer returns the collector's event callback, for sim.Run /
// sim.Runner.Run (compose with other observers via sim.MultiObserver).
func (c *Collector) Observer() sim.Observer { return c.Observe }

func (c *Collector) resetCur(index int64) {
	c.cur = Window{
		Index: index,
		Start: index * c.window,
		End:   (index + 1) * c.window,
		Cores: make([]CoreWindow, c.cores),
	}
}

// closeCur finalises the current window into the ring and the run
// totals, and opens the next.
func (c *Collector) closeCur() {
	for j := range c.cur.Cores {
		cw, cum := &c.cur.Cores[j], &c.cum[j]
		cw.Requests = cw.Hits + cw.Faults
		cum.Requests += cw.Requests
		cum.Faults += cw.Faults
		cum.Hits += cw.Hits
		cum.Joins += cw.Joins
		cw.Occupancy = c.occ[j]
		cw.TauDebt = cum.Faults * c.tau
		c.curJain[j] = cw.Faults
	}
	c.partChanges += c.cur.PartitionChanges
	c.volEvictions += c.cur.VoluntaryEvictions
	c.capChanges += c.cur.CapacityChanges
	c.capEvictions += c.cur.CapacityEvictions
	c.cur.FaultJain = metrics.JainIndex(c.curJain)
	if c.elastic {
		c.cur.CapacityK = c.curK
	}
	if len(c.ring) < c.maxWin {
		c.ring = append(c.ring, c.cur)
	} else {
		c.ring[c.ringStart] = c.cur
		c.ringStart = (c.ringStart + 1) % c.maxWin
		c.dropped++
	}
	c.closed++
	c.resetCur(c.cur.Index + 1)
}

// advanceTo closes every window that ends at or before time t.
func (c *Collector) advanceTo(t int64) {
	for t >= c.cur.End {
		c.closeCur()
	}
}

// Observe ingests one simulation event. Events must arrive in the
// simulator's delivery order (non-decreasing time).
//
//mcpaging:hotpath
func (c *Collector) Observe(e sim.Event) {
	if c.events != nil {
		c.writeEventJSONL(e)
	}
	c.anyEvent = true
	c.advanceTo(e.Time)
	if e.Capacity {
		if e.Tick {
			// Capacity-pressure eviction: the engine shed e.Page to fit a
			// shrunken K(t). The holder loses the cell but no core takes
			// it, so the partition counters stay untouched.
			if h, ok := c.holder.remove(e.Page); ok {
				c.occ[h]--
			}
			c.cur.CapacityEvictions++
			return
		}
		// Announcement: K(t) changed at e.Time.
		c.curK = int64(e.K)
		if c.curK < c.minK {
			c.minK = c.curK
		}
		c.cur.CapacityChanges++
		return
	}
	if e.Tick {
		// Voluntary eviction: the holder's share shrinks by one cell. A
		// donor tick (a dynamic partition shedding toward new quotas) is
		// additionally a partition change: the holder donated the cell,
		// though the recipient is unknown until a later fault grows into
		// it, so TakenCells stays untouched here.
		if h, ok := c.holder.remove(e.Page); ok {
			c.occ[h]--
			if e.Donor {
				c.donated[h]++
				c.cur.PartitionChanges++
			}
		}
		c.cur.VoluntaryEvictions++
		return
	}
	if e.Core < 0 || e.Core >= c.cores {
		return
	}
	// Requests is Hits + Faults, filled in when the window closes.
	cw := &c.cur.Cores[e.Core]
	switch {
	case !e.Fault:
		cw.Hits++
	case e.Join:
		// Shared in-flight cell: a fault for the core, no cell movement.
		cw.Faults++
		cw.Joins++
	default:
		cw.Faults++
		if e.Victim != core.NoPage {
			if h, ok := c.holder.remove(e.Victim); ok {
				c.occ[h]--
				if int(h) != e.Core {
					c.donated[h]++
					c.taken[e.Core]++
					c.cur.PartitionChanges++
				}
			}
		}
		c.holder.put(e.Page, int32(e.Core))
		c.occ[e.Core]++
	}
}

// Finish flushes the tail of the run: every window through the one
// containing the result's makespan is closed, so the exported series
// covers the full timeline including trailing fetch delays. Finish must
// be called exactly once, after the simulation returns.
func (c *Collector) Finish(res sim.Result) {
	if c.finished {
		return
	}
	c.finished = true
	c.res = res
	if c.anyEvent || res.Makespan > 0 {
		// Close through the window containing makespan-1 (the run's last
		// occupied time step).
		last := res.Makespan - 1
		if last < c.cur.Start {
			last = c.cur.Start
		}
		c.advanceTo(last + c.window)
	}
}

// Result returns the simulation result recorded by Finish.
func (c *Collector) Result() sim.Result { return c.res }

// Windows returns the retained closed windows, oldest first. The slice
// aliases the ring; callers must not mutate it.
func (c *Collector) Windows() []Window {
	if c.ringStart == 0 {
		return c.ring
	}
	out := make([]Window, 0, len(c.ring))
	out = append(out, c.ring[c.ringStart:]...)
	out = append(out, c.ring[:c.ringStart]...)
	return out
}

// Totals returns the end-of-run counter snapshot.
func (c *Collector) Totals() Totals {
	p := c.cores
	req, faults, hits, joins, td := make([]int64, p), make([]int64, p), make([]int64, p), make([]int64, p), make([]int64, p)
	for j, cum := range c.cum {
		open := c.cur.Cores[j]
		hits[j] = cum.Hits + open.Hits
		faults[j] = cum.Faults + open.Faults
		req[j] = hits[j] + faults[j]
		joins[j] = cum.Joins + open.Joins
		td[j] = faults[j] * c.tau
	}
	cp := func(s []int64) []int64 { return append([]int64(nil), s...) }
	return Totals{
		Requests:           req,
		Faults:             faults,
		Hits:               hits,
		Joins:              joins,
		DonatedEvictions:   cp(c.donated),
		TakenCells:         cp(c.taken),
		Occupancy:          cp(c.occ),
		TauDebt:            td,
		PartitionChanges:   c.partChanges + c.cur.PartitionChanges,
		VoluntaryEvictions: c.volEvictions + c.cur.VoluntaryEvictions,
		CapacityChanges:    c.capChanges + c.cur.CapacityChanges,
		CapacityEvictions:  c.capEvictions + c.cur.CapacityEvictions,
		MinCapacity:        c.minK,
		FinalCapacity:      c.curK,
		FaultJain:          metrics.JainIndex(faults),
		Windows:            c.closed,
		DroppedWindows:     c.dropped,
	}
}
