package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcpaging/internal/server"
)

// In a traced window the client sends each request's job ID and the ID
// of its client.request span, so the server.handler span the handler
// wrapper records shares the job ID and names its parent. mcservd
// ignores both headers.
const (
	jobHeader  = "X-Perfbench-Job"
	spanHeader = "X-Perfbench-Span"
)

// service is one mcservd running in this process behind a loopback
// listener, configured as a deployment on this machine would be: one
// worker per CPU.
type service struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
	// tr, while non-nil, makes the handler wrapper record a
	// server.handler span around every request.
	tr atomic.Pointer[tracer]
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		srv:  server.New(server.Config{Workers: runtime.NumCPU()}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	h := s.srv.Handler()
	s.http = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		job, _ := strconv.Atoi(r.Header.Get(jobHeader))
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		tr.record("server.handler", r.URL.Path, int32(parent), job, func() { h.ServeHTTP(w, r) })
	})}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close stops the listener, waits for in-flight handlers and for the
// worker pool to drain.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.http.Shutdown(ctx) // on timeout, Drain below still waits for the jobs
	<-s.done
	s.srv.Drain()
}

// newClient returns an HTTP client that opens at most one connection
// per CPU to a server.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
}

// post sends body to url and returns the status and the whole response
// body; the response is complete when post returns. With tr non-nil the
// request is recorded as a client.request span of job.
func post(cl *http.Client, url string, body []byte, job int, tr *tracer) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		id := tr.begin("client.request", req.URL.Path, 0, job)
		defer tr.end(id)
		req.Header.Set(jobHeader, strconv.Itoa(job))
		req.Header.Set(spanHeader, strconv.Itoa(int(id)))
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// op is one timed operation: a job, or on the sweep workload one sweep
// request.
type op struct {
	id        int
	due, sent time.Time
	done      time.Time
	status    int
	body      []byte
	err       error
}

func (o *op) latency() time.Duration { return o.done.Sub(o.due) }
func (o *op) late() time.Duration    { return o.sent.Sub(o.due) }

// openLoop sends n requests with IDs base, base+1, ..., request i due
// at t0 + i/rate whether or not earlier ones have completed, and waits
// for all of them. Latency runs from the due time, so a stall is also
// charged to every request queued behind it.
func openLoop(base, n int, rate float64, send func(o *op)) []op {
	ops := make([]op, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range ops {
		due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		o := &ops[i]
		o.id, o.due, o.sent = base+i, due, time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(o)
			o.done = time.Now()
		}()
	}
	wg.Wait()
	return ops
}

// closedLoop runs up to n requests with IDs base, base+1, ... from
// clients concurrent callers, each sending its next request when its
// previous one has completed; a request is due when its caller is free.
// With a non-zero until, no request starts after that time. It returns
// the requests that ran, in ID order.
func closedLoop(base, n, clients int, until time.Time, send func(o *op)) []op {
	ops := make([]op, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if !until.IsZero() && time.Now().After(until) {
					return
				}
				o := &ops[i]
				o.id, o.due = base+i, time.Now()
				o.sent = o.due
				send(o)
				o.done = time.Now()
			}
		}()
	}
	wg.Wait()
	ran := ops[:0]
	for _, o := range ops {
		if !o.sent.IsZero() {
			ran = append(ran, o)
		}
	}
	return ran
}
