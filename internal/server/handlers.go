package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mcpaging/internal/strategyspec"
	"mcpaging/internal/telemetry"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /strategies", s.handleStrategies)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJob)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// HTTPError writes a JSON error body {"error": "..."}: the one error
// shape of mcservd and mcfleet, so clients of either share handling.
func HTTPError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// SetRetryAfter sets the Retry-After hint of a refusal in whole seconds,
// rounded up — the one format of every 429 and 503 either service
// sends, so clients back off uniformly.
func SetRetryAfter(w http.ResponseWriter, d time.Duration) {
	w.Header().Set("Retry-After", strconv.Itoa(int((d+time.Second-1)/time.Second)))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready() {
		SetRetryAfter(w, s.cfg.RetryAfter)
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

// handleMetrics serves the server-level counters followed by the
// telemetry Prometheus snapshot of the most recently completed job.
// Server metrics are mcservd_*; per-run telemetry is mcpaging_*, so the
// two families never collide in one scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.writePrometheus(w, s.snapshotGauges()); err != nil {
		return
	}
	s.telemMu.Lock()
	defer s.telemMu.Unlock()
	if s.lastTelem != nil {
		_ = telemetry.WritePrometheus(w, s.lastTelem)
	}
}

func (s *Server) handleStrategies(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, struct {
		Strategies []strategyspec.Combo `json:"strategies"`
	}{strategyspec.List()})
}

// handleJob serves POST /v1/jobs: resolve → canonical key → cache →
// queue → worker → respond. See docs/server.md for the lifecycle.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	req, err := ReadJob(w, r, s.cfg.MaxBody)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rs, params, key, err := req.Resolve(s.cfg.MaxRequests)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Cache lookup with per-key singleflight: concurrent misses on one
	// key elect a leader that computes; followers wait for the flight
	// to finish and re-check the cache instead of duplicating the run.
	for {
		if v, ok := s.cache.get(key); ok {
			WriteJSON(w, http.StatusOK, JobResponse{Key: key, Cached: true, Result: v})
			return
		}
		// While draining, refuse instead of joining (or leading) a
		// flight: drain must not park new requests behind in-flight
		// work. Cache hits above are still served.
		if !s.ready() {
			SetRetryAfter(w, s.cfg.RetryAfter)
			HTTPError(w, http.StatusServiceUnavailable, "%v", ErrDraining)
			return
		}
		leader, wait := s.cache.join(key)
		if leader {
			break
		}
		s.metrics.coalesced.Add(1)
		select {
		case <-wait:
			// Leader finished: loop to re-check the cache. On a leader
			// error the entry is still absent and this caller becomes
			// the next leader.
		case <-r.Context().Done():
			return
		}
	}
	defer s.cache.leave(key)
	start := time.Now()
	j := &job{
		rs:      rs,
		spec:    req.Strategy,
		params:  params,
		seed:    req.Seed,
		key:     key,
		ctx:     r.Context(),
		timeout: s.jobTimeout(req.TimeoutMS),
		res:     make(chan outcome, 1),
	}
	if err := s.submit(j); err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			SetRetryAfter(w, s.cfg.RetryAfter)
			HTTPError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrDraining):
			SetRetryAfter(w, s.cfg.RetryAfter)
			HTTPError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			HTTPError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	select {
	case out := <-j.res:
		s.finishJob(w, key, start, out)
	case <-r.Context().Done():
		// Client gone: the job's context aborts the run; the worker's
		// send lands in the buffered channel and the job is dropped.
		return
	}
}

// finishJob maps a worker outcome onto the HTTP response and the
// metrics counters, and feeds the result cache.
func (s *Server) finishJob(w http.ResponseWriter, key string, start time.Time, out outcome) {
	if out.err != nil {
		s.metrics.failed.Add(1)
		var be errBuild
		switch {
		case errors.As(out.err, &be):
			HTTPError(w, http.StatusUnprocessableEntity, "%v", out.err)
		case errors.Is(out.err, context.DeadlineExceeded):
			HTTPError(w, http.StatusGatewayTimeout, "%v", out.err)
		default:
			HTTPError(w, http.StatusInternalServerError, "%v", out.err)
		}
		return
	}
	elapsed := time.Since(start)
	s.metrics.completed.Add(1)
	s.metrics.observeLatency(elapsed)
	s.cache.put(key, out.result)
	WriteJSON(w, http.StatusOK, JobResponse{
		Key:       key,
		Cached:    false,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		Result:    out.result,
	})
}

// handleSweep serves POST /v1/sweep: the K × τ × strategy grid fans out
// across the worker pool and results stream back as JSONL in
// deterministic K-major order (the same order internal/sweep uses).
// Cached points stream immediately; misses stream as the pool finishes
// them. Backpressure is the stream itself: submission into the bounded
// queue blocks, so a sweep never overruns the pool.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, err := ReadSweep(w, r, s.cfg.MaxBody)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rs, cells, err := req.Resolve(s.cfg.MaxRequests)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	type point struct {
		line SweepLine
		hit  *Result
		j    *job
	}
	pts := make([]*point, len(cells))
	for i, c := range cells {
		pt := &point{line: SweepLine{K: c.K, Tau: c.Tau, Capacity: c.Capacity, Spec: c.Spec}}
		pt.line.Key = JobKey(rs, c.Spec, c.Params, req.Seed)
		if v, ok := s.cache.get(pt.line.Key); ok {
			pt.hit = &v
		} else {
			pt.j = &job{
				rs:      rs,
				spec:    c.Spec,
				params:  c.Params,
				seed:    req.Seed,
				key:     pt.line.Key,
				ctx:     r.Context(),
				timeout: s.cfg.JobTimeout,
				res:     make(chan outcome, 1),
			}
		}
		pts[i] = pt
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// Feed the pool in grid order; a submission failure becomes the
	// point's outcome so the streaming loop below reports it in place.
	go func() {
		for _, pt := range pts {
			if pt.j == nil {
				continue
			}
			if err := s.submitWait(r.Context(), pt.j); err != nil {
				pt.j.res <- outcome{err: err}
			}
		}
	}()

	for _, pt := range pts {
		line := pt.line
		switch {
		case pt.hit != nil:
			line.Cached = true
			line.Result = pt.hit
		default:
			out := <-pt.j.res
			if out.err != nil {
				if !errors.Is(out.err, ErrDraining) && !errors.Is(out.err, context.Canceled) {
					s.metrics.failed.Add(1)
				}
				line.Error = out.err.Error()
			} else {
				s.metrics.completed.Add(1)
				s.cache.put(line.Key, out.result)
				res := out.result
				line.Result = &res
			}
		}
		if err := enc.Encode(line); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
