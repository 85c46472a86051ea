package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"mcpaging/internal/capacity"
	"mcpaging/internal/core"
	"mcpaging/internal/sweep"
	"mcpaging/internal/trace"
	"mcpaging/internal/workload"
)

// TraceInput names a request set in one of three ways; exactly one
// field must be set. Inline and binary inputs are taken as-is; workload
// inputs are generated deterministically from the spec, so the same
// spec always canonicalizes to the same cache key.
type TraceInput struct {
	// Inline is the request set itself: one array of page IDs per core.
	Inline []core.Sequence `json:"inline,omitempty"`
	// Workload generates the request set from a generator spec (see
	// package workload for the families and their parameters).
	Workload *workload.Spec `json:"workload,omitempty"`
	// BinaryB64 is a base64 (standard encoding) binary trace in the
	// internal/trace wire format, as written by `mcgen -binary`.
	BinaryB64 string `json:"binary_b64,omitempty"`
}

// Resolve materialises the request set, enforcing a per-job size
// budget. It is exported for the fleet coordinator, which resolves the
// trace once to compute routing keys and forwards the compact input
// form to workers unchanged.
func (t TraceInput) Resolve(maxRequests int) (core.RequestSet, error) {
	modes := 0
	if t.Inline != nil {
		modes++
	}
	if t.Workload != nil {
		modes++
	}
	if t.BinaryB64 != "" {
		modes++
	}
	if modes != 1 {
		return nil, fmt.Errorf("trace: exactly one of inline, workload, binary_b64 must be set (got %d)", modes)
	}
	var rs core.RequestSet
	switch {
	case t.Inline != nil:
		rs = core.RequestSet(t.Inline)
	case t.Workload != nil:
		spec := *t.Workload
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		// Check the budget before generating (Cores ≥ 1 and Length ≥ 0
		// are validated above; the per-factor checks rule out overflow).
		if spec.Cores > maxRequests || spec.Length > maxRequests ||
			int64(spec.Cores)*int64(spec.Length) > int64(maxRequests) {
			return nil, fmt.Errorf("trace: workload of %d x %d requests exceeds the per-job budget of %d", spec.Cores, spec.Length, maxRequests)
		}
		var err error
		rs, err = workload.Generate(spec)
		if err != nil {
			return nil, err
		}
	default:
		raw, err := base64.StdEncoding.DecodeString(t.BinaryB64)
		if err != nil {
			return nil, fmt.Errorf("trace: binary_b64: %w", err)
		}
		rs, err = trace.ReadBinary(bytes.NewReader(raw), maxRequests)
		if err != nil {
			return nil, err
		}
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	if n := rs.TotalLen(); n > maxRequests {
		return nil, fmt.Errorf("trace: %d requests exceeds the per-job budget of %d", n, maxRequests)
	}
	return rs, nil
}

// JobRequest is the body of POST /v1/jobs.
type JobRequest struct {
	Trace    TraceInput `json:"trace"`
	Strategy string     `json:"strategy"`
	K        int        `json:"k"`
	Tau      int        `json:"tau"`
	// Capacity is an optional K(t) schedule spec (capacity
	// mini-language, resolved against K); empty is the fixed-capacity
	// model. Only the portable families are accepted — trace(path=...)
	// names a server-side file and is rejected with 400. The resolved
	// schedule is part of the cache key.
	Capacity string `json:"capacity,omitempty"`
	// Seed drives RAND/RMARK policies; it is part of the cache key.
	Seed int64 `json:"seed"`
	// TimeoutMS optionally lowers the server's per-job timeout for this
	// job. Values at or above the server timeout are ignored.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Result is the JSON shape of one simulation outcome — the unit the
// result cache stores and both the job and sweep endpoints return. It
// is derived deterministically from a sim.Result, so re-marshalling a
// cached entry is byte-identical to the first response.
type Result struct {
	Strategy           string  `json:"strategy"`
	Faults             []int64 `json:"faults"`
	Hits               []int64 `json:"hits"`
	Finish             []int64 `json:"finish"`
	Makespan           int64   `json:"makespan"`
	TotalFaults        int64   `json:"total_faults"`
	TotalHits          int64   `json:"total_hits"`
	FaultRate          float64 `json:"fault_rate"`
	Jain               float64 `json:"jain"`
	VoluntaryEvictions int64   `json:"voluntary_evictions"`
	// CapacityEvictions counts pages shed under capacity pressure;
	// omitted for fixed-capacity jobs, keeping their cached response
	// bytes identical across server versions.
	CapacityEvictions int64 `json:"capacity_evictions,omitempty"`
}

// JobResponse is the envelope of POST /v1/jobs.
type JobResponse struct {
	// Key is the canonical cache key of (instance, strategy, params).
	Key string `json:"key"`
	// Cached reports whether Result came from the result cache.
	Cached bool `json:"cached"`
	// ElapsedMS is the job's wall-clock service time (queue wait plus
	// simulation) — 0 for cache hits.
	ElapsedMS float64 `json:"elapsed_ms"`
	Result    Result  `json:"result"`
}

// SweepRequest is the body of POST /v1/sweep: one workload, a K × τ ×
// strategy grid. The response streams one SweepLine per grid point as
// JSONL, in deterministic K-major order.
type SweepRequest struct {
	Trace TraceInput `json:"trace"`
	Ks    []int      `json:"ks"`
	Taus  []int      `json:"taus"`
	// Capacities are optional K(t) schedule specs forming a grid
	// dimension (empty = fixed capacity only). Portable families only,
	// like JobRequest.Capacity.
	Capacities []string `json:"capacities,omitempty"`
	Strategies []string `json:"strategies"`
	Seed       int64    `json:"seed"`
}

// The readers and resolvers below are the one path from a network body
// to a simulation instance: mcservd's handlers and the mcfleet
// coordinator both call them, so the two reject a bad body with the
// same first error. Every error they return is the client's (a 400).

// ReadJob decodes a POST /v1/jobs body of at most maxBody bytes and
// requires a strategy.
func ReadJob(w http.ResponseWriter, r *http.Request, maxBody int64) (JobRequest, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return req, fmt.Errorf("decoding job: %w", err)
	}
	if req.Strategy == "" {
		return req, errors.New("strategy is required")
	}
	return req, nil
}

// ReadSweep decodes a POST /v1/sweep body of at most maxBody bytes.
// An empty strategy list is left to the grid's empty-dimension check.
func ReadSweep(w http.ResponseWriter, r *http.Request, maxBody int64) (SweepRequest, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return req, fmt.Errorf("decoding sweep: %w", err)
	}
	return req, nil
}

// Resolve turns the job into its instance and cache key, checking in
// this order: the capacity spec (portable families only — a client
// spec must never name a file on the host), the model parameters, then
// the trace under the maxRequests budget.
func (req JobRequest) Resolve(maxRequests int) (core.RequestSet, core.Params, string, error) {
	params := core.Params{K: req.K, Tau: req.Tau}
	if req.Capacity != "" {
		sched, err := capacity.ParsePortableSchedule(req.Capacity, req.K)
		if err != nil {
			return nil, params, "", err
		}
		params.Capacity = sched
	}
	if err := params.Validate(); err != nil {
		return nil, params, "", err
	}
	rs, err := req.Trace.Resolve(maxRequests)
	if err != nil {
		return nil, params, "", err
	}
	return rs, params, JobKey(rs, req.Strategy, params, req.Seed), nil
}

// Resolve materialises the sweep's trace under the maxRequests budget,
// then expands its grid into cells in canonical order, each carrying
// its parameters with the schedule resolved; capacity specs are held
// to the portable families. The cell count — a product the body only
// claims — is held to the same budget before any cell is allocated.
func (req SweepRequest) Resolve(maxRequests int) (core.RequestSet, []sweep.Cell, error) {
	rs, err := req.Trace.Resolve(maxRequests)
	if err != nil {
		return nil, nil, err
	}
	n := 1
	for _, d := range []int{len(req.Ks), len(req.Taus), max(1, len(req.Capacities)), len(req.Strategies)} {
		if d > 0 && n > maxRequests/d {
			return nil, nil, fmt.Errorf("sweep: grid of %d×%d×%d×%d cells exceeds the per-job budget of %d",
				len(req.Ks), len(req.Taus), max(1, len(req.Capacities)), len(req.Strategies), maxRequests)
		}
		n *= d
	}
	cells, err := sweep.Grid{R: rs, Ks: req.Ks, Taus: req.Taus, Capacities: req.Capacities,
		Specs: req.Strategies, PortableOnly: true}.Cells()
	if err != nil {
		return nil, nil, err
	}
	return rs, cells, nil
}

// SweepLine is one JSONL line of the sweep stream.
type SweepLine struct {
	K        int     `json:"k"`
	Tau      int     `json:"tau"`
	Capacity string  `json:"capacity,omitempty"`
	Spec     string  `json:"spec"`
	Key      string  `json:"key"`
	Cached   bool    `json:"cached"`
	Result   *Result `json:"result,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// job is one unit of work on the queue. res is buffered so a worker
// never blocks on a handler that has already given up on the job.
type job struct {
	rs      core.RequestSet
	spec    string
	params  core.Params
	seed    int64
	key     string
	ctx     context.Context
	timeout time.Duration
	res     chan outcome
}

// outcome is what a worker hands back for one job.
type outcome struct {
	result Result
	err    error
}
