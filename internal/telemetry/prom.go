package telemetry

import (
	"io"
	"strconv"
)

// Prom builds a Prometheus text-format (version 0.0.4) exposition in
// memory: every /metrics producer — this package's end-of-run snapshot,
// mcservd and mcfleet — writes through it, so the # HELP/# TYPE lines
// and the sample formats have one definition. Integers print as %d,
// floats as %g, label values %q-quoted. Families appear in call order.
type Prom struct{ b []byte }

// Family opens a metric family: its # HELP and # TYPE lines.
func (p *Prom) Family(name, help, typ string) {
	p.b = append(p.b, "# HELP "+name+" "+help+"\n# TYPE "+name+" "+typ+"\n"...)
}

// Int writes one unlabelled integer sample.
func (p *Prom) Int(name string, v int64) { p.LabelledInt(name, "", "", v) }

// Float writes one unlabelled float sample.
func (p *Prom) Float(name string, v float64) { p.LabelledFloat(name, "", "", v) }

// LabelledInt writes one integer sample carrying the label key=val (no
// label when key is empty).
func (p *Prom) LabelledInt(name, key, val string, v int64) {
	p.series(name, key, val)
	p.b = append(strconv.AppendInt(p.b, v, 10), '\n')
}

// LabelledFloat writes one float sample carrying the label key=val (no
// label when key is empty).
func (p *Prom) LabelledFloat(name, key, val string, v float64) {
	p.series(name, key, val)
	p.b = append(strconv.AppendFloat(p.b, v, 'g', -1, 64), '\n')
}

func (p *Prom) series(name, key, val string) {
	p.b = append(p.b, name...)
	if key != "" {
		p.b = append(p.b, '{')
		p.b = append(p.b, key...)
		p.b = append(p.b, '=')
		p.b = strconv.AppendQuote(p.b, val)
		p.b = append(p.b, '}')
	}
	p.b = append(p.b, ' ')
}

// Counter writes a one-sample counter family.
func (p *Prom) Counter(name, help string, v int64) {
	p.Family(name, help, "counter")
	p.Int(name, v)
}

// Gauge writes a one-sample gauge family.
func (p *Prom) Gauge(name, help string, v float64) {
	p.Family(name, help, "gauge")
	p.Float(name, v)
}

// WriteTo writes the exposition to w in one call.
func (p *Prom) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(p.b)
	return int64(n), err
}

// WritePrometheus writes the end-of-run counters and gauges as a
// Prometheus text-format (version 0.0.4) snapshot: the same numbers a
// long-running deployment would scrape, frozen at run end. Metric and
// label order is fixed, so the snapshot is byte-reproducible.
func WritePrometheus(w io.Writer, c *Collector) error {
	tot := c.Totals()
	var p Prom
	perCore := func(name, help, typ string, vals []int64) {
		p.Family(name, help, typ)
		for j, v := range vals {
			p.LabelledInt(name, "core", strconv.Itoa(j), v)
		}
	}
	scalar := func(name, help, typ string, v int64) {
		p.Family(name, help, typ)
		p.Int(name, v)
	}
	perCore("mcpaging_requests_total", "Requests served, per core.", "counter", tot.Requests)
	perCore("mcpaging_faults_total", "Page faults (including in-flight joins), per core.", "counter", tot.Faults)
	perCore("mcpaging_hits_total", "Cache hits, per core.", "counter", tot.Hits)
	perCore("mcpaging_joins_total", "Faults that joined an in-flight fetch, per core.", "counter", tot.Joins)
	perCore("mcpaging_donated_evictions_total", "Cells this core held that another core's fault evicted.", "counter", tot.DonatedEvictions)
	perCore("mcpaging_taken_cells_total", "Cells this core took from other cores on a fault.", "counter", tot.TakenCells)
	perCore("mcpaging_occupancy_cells", "Cache cells attributed to the core at run end.", "gauge", tot.Occupancy)
	perCore("mcpaging_tau_debt_steps_total", "Cumulative fault delay (faults x tau) in time steps, per core.", "counter", tot.TauDebt)
	if len(c.res.Finish) == len(tot.Requests) {
		perCore("mcpaging_finish_time", "Completion time of the core's last request.", "gauge", c.res.Finish)
	}
	scalar("mcpaging_partition_changes_total", "Cross-core evictions: cells moved between cores' occupancy shares.", "counter", tot.PartitionChanges)
	scalar("mcpaging_voluntary_evictions_total", "Pages evicted voluntarily by Ticker strategies.", "counter", tot.VoluntaryEvictions)
	if c.elastic {
		// Elastic-only metrics: fixed-capacity snapshots stay byte-identical.
		scalar("mcpaging_capacity_changes_total", "Elastic-capacity K(t) announcements over the run.", "counter", tot.CapacityChanges)
		scalar("mcpaging_capacity_evictions_total", "Pages shed under capacity pressure while K(t) shrank.", "counter", tot.CapacityEvictions)
		scalar("mcpaging_capacity_k", "Cache capacity K(t) at run end.", "gauge", tot.FinalCapacity)
		scalar("mcpaging_capacity_k_min", "Minimum cache capacity K(t) reached over the run.", "gauge", tot.MinCapacity)
	}
	p.Family("mcpaging_fault_jain", "Jain fairness index of whole-run per-core fault counts.", "gauge")
	p.Float("mcpaging_fault_jain", tot.FaultJain)
	scalar("mcpaging_makespan", "Maximum finish time across cores.", "gauge", c.res.Makespan)
	scalar("mcpaging_windows_total", "Telemetry windows closed over the run.", "counter", tot.Windows)
	scalar("mcpaging_windows_dropped_total", "Closed windows that aged out of the retention ring.", "counter", tot.DroppedWindows)
	_, err := p.WriteTo(w)
	return err
}
