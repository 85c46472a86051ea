package fleet

import (
	"io"
	"sync/atomic"

	"mcpaging/internal/telemetry"
)

// fleetMetrics holds the coordinator counters exposed on /metrics.
// All fields are atomics, bumped from the gateway and dispatcher.
type fleetMetrics struct {
	jobs       atomic.Int64 // single jobs routed via POST /v1/jobs
	sweeps     atomic.Int64 // sweeps accepted
	cells      atomic.Int64 // sweep cells completed successfully
	cellErrors atomic.Int64 // cells that exhausted retry/failover

	routedOwner atomic.Int64 // cells served by their ring owner
	routedSpill atomic.Int64 // cells spilled to a ring successor
	failovers   atomic.Int64 // hard worker failures observed while routing
	retryRounds atomic.Int64 // full failover rotations that ended in backoff

	quotaDenied atomic.Int64 // requests bounced by a tenant quota
	shed        atomic.Int64 // requests shed because the fleet was saturated

	cellsInflight atomic.Int64 // gauge: cells currently in flight
}

// writePrometheus emits the coordinator metrics in Prometheus text
// format (version 0.0.4): the mcfleet_* counter family, then the
// per-worker gauge families labelled by worker ID in sorted order, so
// scrapes are stable.
func (m *fleetMetrics) writePrometheus(w io.Writer, workers []WorkerInfo, tenants int, ready bool) error {
	var p telemetry.Prom
	p.Counter("mcfleet_jobs_total", "Single jobs routed onto the fleet.", m.jobs.Load())
	p.Counter("mcfleet_sweeps_total", "Sweeps accepted by the coordinator.", m.sweeps.Load())
	p.Counter("mcfleet_cells_total", "Sweep cells completed successfully.", m.cells.Load())
	p.Counter("mcfleet_cell_errors_total", "Sweep cells that failed after retry and failover.", m.cellErrors.Load())
	p.Counter("mcfleet_routed_owner_total", "Cells served by their consistent-hash ring owner.", m.routedOwner.Load())
	p.Counter("mcfleet_routed_spill_total", "Cells spilled to a ring successor (owner saturated or down).", m.routedSpill.Load())
	p.Counter("mcfleet_failovers_total", "Hard worker failures observed while routing.", m.failovers.Load())
	p.Counter("mcfleet_retry_rounds_total", "Failover rotations that exhausted all candidates and backed off.", m.retryRounds.Load())
	p.Counter("mcfleet_quota_denied_total", "Requests bounced by a per-tenant quota.", m.quotaDenied.Load())
	p.Counter("mcfleet_shed_total", "Requests shed because the fleet was saturated.", m.shed.Load())
	p.Gauge("mcfleet_cells_inflight", "Sweep cells currently in flight.", float64(m.cellsInflight.Load()))
	p.Gauge("mcfleet_tenants", "Tenants with an active quota bucket.", float64(tenants))
	readyVal := 0.0
	if ready {
		readyVal = 1
	}
	p.Gauge("mcfleet_ready", "1 while the coordinator admits work, 0 once draining.", readyVal)

	labelled := func(name, help, typ string, value func(WorkerInfo) float64) {
		p.Family(name, help, typ)
		for _, wi := range workers {
			p.LabelledFloat(name, "worker", wi.ID, value(wi))
		}
	}
	labelled("mcfleet_worker_up", "1 while the worker is healthy, 0 while draining or down.", "gauge", func(wi WorkerInfo) float64 {
		if wi.Status == StatusHealthy.String() {
			return 1
		}
		return 0
	})
	labelled("mcfleet_worker_latency_seconds", "EWMA of the worker's observed latency.", "gauge", func(wi WorkerInfo) float64 {
		return wi.LatencyMS / 1000
	})
	labelled("mcfleet_worker_weight", "Latency weight scaling the spill work this worker absorbs.", "gauge", func(wi WorkerInfo) float64 {
		return wi.Weight
	})
	labelled("mcfleet_worker_inflight", "Cells currently in flight on this worker.", "gauge", func(wi WorkerInfo) float64 {
		return float64(wi.Inflight)
	})
	labelled("mcfleet_worker_served_total", "Jobs this worker has served for the coordinator.", "counter", func(wi WorkerInfo) float64 {
		return float64(wi.Served)
	})
	labelled("mcfleet_worker_probe_fails_total", "Failed /readyz probes against this worker.", "counter", func(wi WorkerInfo) float64 {
		return float64(wi.ProbeFails)
	})
	_, err := p.WriteTo(w)
	return err
}
