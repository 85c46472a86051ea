package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"time"

	"mcpaging/internal/core"
	"mcpaging/internal/server"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/trace"
	"mcpaging/internal/workload"
)

// sizes fixes the shape of every input. The package test shrinks them;
// runs use fullSizes.
type sizes struct {
	Cores, Length, Pages int   // one job's instance: Cores × Length Zipf requests over Pages pages per core
	K, Tau               int   // job parameters
	HitInstances         int   // distinct instances behind job-trace-hit
	SweepLength          int   // per-core length of the sweep trace (same cores and pages)
	SweepKs              []int // sweep grid K values; τ is Tau
	SetupRepeats         int   // set-ups per untraced run; setup_s is their median
	ReplayJobs           int   // jobs the traced run replays through the layers
	DriveRepeats         int   // repeats of each direct cache drive
}

// fullSizes is the benchmark as run: the ROADMAP's baseline job
// (4×64K Zipf, K 256, τ 8) and a 4×16K portfolio sweep.
var fullSizes = sizes{
	Cores: 4, Length: 65536, Pages: 1024, K: 256, Tau: 8,
	HitInstances: 4, SweepLength: 16384, SweepKs: []int{64, 256},
	SetupRepeats: 9, ReplayJobs: 5, DriveRepeats: 3,
}

func (sz sizes) params() core.Params { return core.Params{K: sz.K, Tau: sz.Tau} }

// Seed streams: every input is derived from the run's seed, a stream
// and an index, so one seed always gives the same inputs.
const (
	streamJobs int64 = iota + 1
	streamWarm
	streamHit
	streamHitOrder
	streamSweep
	streamReplay
)

// jobSpec is the instance of job i of a stream.
func (sz sizes) jobSpec(seed, stream int64, i int) workload.Spec {
	return workload.Spec{Cores: sz.Cores, Length: sz.Length, Pages: sz.Pages,
		Kind: workload.Zipf, Seed: sim.DeriveSeed(seed, stream, int64(i))}
}

// sweepSpec is the instance of the run's sweep.
func (sz sizes) sweepSpec(seed int64) workload.Spec {
	return workload.Spec{Cores: sz.Cores, Length: sz.SweepLength, Pages: sz.Pages,
		Kind: workload.Zipf, Seed: sim.DeriveSeed(seed, streamSweep, 0)}
}

// jobInput is one job: an instance and a strategy.
type jobInput struct {
	spec     workload.Spec
	strategy string
}

// jobBody marshals the POST /v1/jobs body of in, carrying the instance
// as a base64 binary trace when one is given and as a workload spec
// otherwise.
func (sz sizes) jobBody(in jobInput, binary string) ([]byte, error) {
	req := server.JobRequest{Strategy: in.strategy, K: sz.K, Tau: sz.Tau}
	if binary != "" {
		req.Trace.BinaryB64 = binary
	} else {
		spec := in.spec
		req.Trace.Workload = &spec
	}
	return json.Marshal(req)
}

// encodeBinary renders rs in the binary trace format, base64-encoded as
// the binary_b64 input carries it.
func encodeBinary(rs core.RequestSet) (string, error) {
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, rs); err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}

// options select one run.
type options struct {
	workload string
	seed     int64
	window   time.Duration // the measured time of the run
	traced   bool
	rate     float64 // offered jobs/s of an open-loop workload
	size     sizes
}

// phase is the outcome of one timed window.
type phase struct {
	ops               []op
	attempted, failed int
	refused, hits     int
	cellsPerS         float64
	// service holds the server-side service times (ms) of the
	// computations the window's answers came from; outside holds, per
	// successful operation, its latency minus its own service time.
	service, outside []float64
}

// latencies returns the latency (ms) of every successful operation.
func (p *phase) latencies() []float64 {
	var out []float64
	for i := range p.ops {
		if o := &p.ops[i]; o.err == nil && o.status == http.StatusOK {
			out = append(out, float64(o.latency())/1e6)
		}
	}
	return out
}

// bench is one workload: it owns its inputs, its server and every
// answer it received.
type bench interface {
	// setup builds the inputs, starts mcservd and warms it.
	setup() error
	// drive runs one timed window of length d. With tr non-nil the
	// client and the server's handler wrapper record spans.
	drive(d time.Duration, tr *tracer) (*phase, error)
	// check compares every answer with sim.RunReference, or with the
	// answer it repeats, and returns the number of wrong answers and a
	// digest of (key, per-core faults, makespan) over the distinct
	// results, which repeats exactly for a seed.
	check() (wrong int, digest string, err error)
	// replay returns the jobs and the sweep instance the traced run
	// times layer by layer.
	replay() ([]jobInput, workload.Spec)
	close()
}

var workloadNames = []string{"job-zipf-miss", "job-trace-hit", "sweep-portfolio"}

// newBench returns the workload o names, one of workloadNames.
func newBench(o options) bench {
	switch o.workload {
	case "job-zipf-miss":
		return &zipfMiss{opts: o, cl: newClient()}
	case "job-trace-hit":
		return &traceHit{opts: o, cl: newClient()}
	case "sweep-portfolio":
		return &sweepPortfolio{opts: o, cl: newClient()}
	}
	panic("perfbench: unvalidated workload " + o.workload)
}

// answered is one decoded job answer, its op ID and the input it was
// for.
type answered struct {
	id   int
	in   jobInput
	resp server.JobResponse
}

// jobPhase tallies the operations of a job window, started at start,
// and decodes the successful answers; input maps an op ID to its job.
func jobPhase(ops []op, start time.Time, input func(id int) jobInput) (*phase, []answered, error) {
	p := &phase{ops: ops, attempted: len(ops)}
	var out []answered
	end := start
	for i := range ops {
		o := &ops[i]
		switch {
		case o.err != nil:
			p.failed++
			continue
		case o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable:
			p.refused++
			p.failed++
			continue
		case o.status != http.StatusOK:
			p.failed++
			continue
		}
		a := answered{id: o.id, in: input(o.id)}
		if err := json.Unmarshal(o.body, &a.resp); err != nil {
			return nil, nil, fmt.Errorf("job %d: decoding answer: %w", o.id, err)
		}
		o.body = nil
		if a.resp.Cached {
			p.hits++
		} else {
			p.service = append(p.service, a.resp.ElapsedMS)
		}
		p.outside = append(p.outside, float64(o.latency())/1e6-a.resp.ElapsedMS)
		if o.done.After(end) {
			end = o.done
		}
		out = append(out, a)
	}
	if len(out) > 0 {
		p.cellsPerS = float64(len(out)) / end.Sub(start).Seconds()
	}
	return p, out, nil
}

// zipfMiss is job-zipf-miss: an open loop of the ROADMAP's baseline
// job given as a workload spec with a fresh seed per job, so every job
// misses the result cache and mcservd generates, keys, binds, simulates
// and collects telemetry for each.
type zipfMiss struct {
	opts    options
	cl      *http.Client
	svc     *service
	sent    int // timed jobs sent so far
	answers []answered
}

const missStrategy = "S(LRU)"

// input is timed job id; warmInput is untimed warm-up job id.
func (w *zipfMiss) input(id int) jobInput {
	return jobInput{w.opts.size.jobSpec(w.opts.seed, streamJobs, id), missStrategy}
}

func (w *zipfMiss) warmInput(id int) jobInput {
	return jobInput{w.opts.size.jobSpec(w.opts.seed, streamWarm, id), missStrategy}
}

// poster returns the send function that posts job input(o.id).
func (w *zipfMiss) poster(input func(id int) jobInput, tr *tracer) func(o *op) {
	return func(o *op) {
		body, err := w.opts.size.jobBody(input(o.id), "")
		if err != nil {
			o.err = err
			return
		}
		o.status, o.body, o.err = post(w.cl, w.svc.url+"/v1/jobs", body, o.id, tr)
	}
}

func (w *zipfMiss) setup() error {
	svc, err := startService()
	if err != nil {
		return err
	}
	w.svc = svc
	// One untimed job per worker binds every worker's runner. Warm-up
	// jobs take negative IDs, apart from the timed ones.
	n := runtime.NumCPU()
	ops := closedLoop(-n, n, n, time.Time{}, w.poster(w.warmInput, nil))
	ph, ans, err := jobPhase(ops, time.Now(), w.warmInput)
	if err != nil {
		return err
	}
	if ph.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d jobs failed", ph.failed, len(ops))
	}
	w.answers = append(w.answers, ans...)
	return nil
}

func (w *zipfMiss) drive(d time.Duration, tr *tracer) (*phase, error) {
	n := int(d.Seconds() * w.opts.rate)
	w.svc.tr.Store(tr)
	defer w.svc.tr.Store(nil)
	start := time.Now()
	ops := openLoop(w.sent, n, w.opts.rate, w.poster(w.input, tr))
	w.sent += n
	ph, ans, err := jobPhase(ops, start, w.input)
	if err != nil {
		return nil, err
	}
	w.answers = append(w.answers, ans...)
	return ph, nil
}

func (w *zipfMiss) check() (int, string, error) {
	wrong, err := checkAgainstReference(w.opts.size, w.answers)
	return wrong, digestAnswers(w.answers), err
}

func (w *zipfMiss) replay() ([]jobInput, workload.Spec) {
	jobs := make([]jobInput, w.opts.size.ReplayJobs)
	for i := range jobs {
		jobs[i] = w.input(i)
	}
	return jobs, w.opts.size.sweepSpec(w.opts.seed)
}

func (w *zipfMiss) close() {
	if w.svc != nil {
		w.svc.close()
	}
	w.cl.CloseIdleConnections()
}

// traceHit is job-trace-hit: an open loop of jobs carrying 4×64K binary
// traces drawn from a few instances × {S(LRU), S(FIFO)}, all answered
// from the result cache filled during set-up. The engine does no work;
// the time goes to body decode, trace decode, JobKey and the cache
// read.
type traceHit struct {
	opts   options
	cl     *http.Client
	svc    *service
	inputs []jobInput
	bodies [][]byte
	fills  []answered // the miss that filled the cache, per body
	sent   int
	hits   []answered // timed answers
}

// hitStrategies are the strategies of the hit workload's jobs.
var hitStrategies = []string{"S(LRU)", "S(FIFO)"}

// pick is the body timed job id sends.
func (w *traceHit) pick(id int) int {
	return int(uint64(sim.DeriveSeed(w.opts.seed, streamHitOrder, int64(id))) % uint64(len(w.bodies)))
}

func (w *traceHit) setup() error {
	sz := w.opts.size
	for j := 0; j < sz.HitInstances; j++ {
		spec := sz.jobSpec(w.opts.seed, streamHit, j)
		rs, err := workload.Generate(spec)
		if err != nil {
			return err
		}
		bin, err := encodeBinary(rs)
		if err != nil {
			return err
		}
		for _, st := range hitStrategies {
			in := jobInput{spec, st}
			b, err := sz.jobBody(in, bin)
			if err != nil {
				return err
			}
			w.inputs = append(w.inputs, in)
			w.bodies = append(w.bodies, b)
		}
	}
	svc, err := startService()
	if err != nil {
		return err
	}
	w.svc = svc
	n := runtime.NumCPU()
	ops := closedLoop(0, len(w.bodies), n, time.Time{}, func(o *op) {
		o.status, o.body, o.err = post(w.cl, svc.url+"/v1/jobs", w.bodies[o.id], o.id, nil)
	})
	ph, fills, err := jobPhase(ops, time.Now(), func(id int) jobInput { return w.inputs[id] })
	if err != nil {
		return err
	}
	if ph.failed > 0 || ph.hits > 0 {
		return fmt.Errorf("cache fill: %d of %d jobs failed, %d were already cached", ph.failed, len(ops), ph.hits)
	}
	w.fills = fills
	return nil
}

func (w *traceHit) drive(d time.Duration, tr *tracer) (*phase, error) {
	n := int(d.Seconds() * w.opts.rate)
	base := w.sent
	w.svc.tr.Store(tr)
	defer w.svc.tr.Store(nil)
	start := time.Now()
	ops := openLoop(base, n, w.opts.rate, func(o *op) {
		o.status, o.body, o.err = post(w.cl, w.svc.url+"/v1/jobs", w.bodies[w.pick(o.id)], o.id, tr)
	})
	w.sent += n
	ph, ans, err := jobPhase(ops, start, func(id int) jobInput { return w.inputs[w.pick(id)] })
	if err != nil {
		return nil, err
	}
	w.hits = append(w.hits, ans...)
	// Every answer came from the computations that filled the cache.
	ph.service = nil
	for _, f := range w.fills {
		ph.service = append(ph.service, f.resp.ElapsedMS)
	}
	return ph, nil
}

func (w *traceHit) check() (int, string, error) {
	wrong, err := checkAgainstReference(w.opts.size, w.fills)
	if err != nil {
		return wrong, "", err
	}
	for _, h := range w.hits {
		if err := sameAnswer(h.resp, w.fills[w.pick(h.id)].resp); err != nil {
			report("job %d: %v", h.id, err)
			wrong++
		}
	}
	return wrong, digestAnswers(w.fills), nil
}

func (w *traceHit) replay() ([]jobInput, workload.Spec) {
	jobs := make([]jobInput, w.opts.size.ReplayJobs)
	for i := range jobs {
		jobs[i] = w.inputs[i%len(w.inputs)]
	}
	return jobs, w.opts.size.sweepSpec(w.opts.seed)
}

func (w *traceHit) close() {
	if w.svc != nil {
		w.svc.close()
	}
	w.cl.CloseIdleConnections()
}

// sweepPortfolio is sweep-portfolio: one closed-loop caller posts the
// strategy portfolio × K grid over one 4×16K binary trace, each time to
// a fresh mcservd, so every cell is computed. Per-policy costs and
// strategy builds dominate; generation and decode happen once a sweep.
type sweepPortfolio struct {
	opts   options
	cl     *http.Client
	rs     core.RequestSet
	req    server.SweepRequest
	body   []byte
	sent   int
	sweeps [][]server.SweepLine // timed sweeps, in order
}

func (w *sweepPortfolio) setup() error {
	var err error
	w.rs, err = workload.Generate(w.opts.size.sweepSpec(w.opts.seed))
	if err != nil {
		return err
	}
	bin, err := encodeBinary(w.rs)
	if err != nil {
		return err
	}
	w.req = server.SweepRequest{Trace: server.TraceInput{BinaryB64: bin},
		Ks: w.opts.size.SweepKs, Taus: []int{w.opts.size.Tau}, Strategies: strategyspec.Portfolio()}
	w.body, err = json.Marshal(w.req)
	if err != nil {
		return err
	}
	// Start and stop one server, as every timed sweep does.
	svc, err := startService()
	if err != nil {
		return err
	}
	svc.close()
	return nil
}

// drive sends sweeps back to back until d has passed, at least one.
func (w *sweepPortfolio) drive(d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{}
	var cellRates []float64
	start := time.Now()
	for len(p.ops) == 0 || time.Since(start) < d {
		svc, err := startService()
		if err != nil {
			return nil, err
		}
		svc.tr.Store(tr)
		o := op{id: w.sent, due: time.Now()}
		o.sent = time.Now()
		o.status, o.body, o.err = post(w.cl, svc.url+"/v1/sweep", w.body, o.id, tr)
		o.done = time.Now()
		svc.close()
		w.cl.CloseIdleConnections()
		w.sent++
		cells := len(w.req.Ks) * len(w.req.Taus) * len(w.req.Strategies)
		p.attempted += cells
		lines, err := decodeSweep(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: sweep %d failed: %v\n", o.id, err)
			p.failed += cells
			o.err = err
		} else {
			for _, l := range lines {
				if l.Error != "" {
					p.failed++
				} else if l.Cached {
					p.hits++
				}
			}
			w.sweeps = append(w.sweeps, lines)
			cellRates = append(cellRates, float64(len(lines))/o.latency().Seconds())
			if tr != nil {
				id := o.id
				if h := tr.durations(func(s span) bool { return s.Name == "server.handler" && s.Job == id }); len(h) > 0 {
					service := h[len(h)-1]
					p.service = append(p.service, service)
					p.outside = append(p.outside, float64(o.latency())/1e6-service)
				}
			}
		}
		o.body = nil
		p.ops = append(p.ops, o)
	}
	p.cellsPerS = median(cellRates)
	return p, nil
}

// decodeSweep parses a sweep answer: one JSONL line per grid cell.
func decodeSweep(o op) ([]server.SweepLine, error) {
	if o.err != nil {
		return nil, o.err
	}
	if o.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
	}
	var lines []server.SweepLine
	dec := json.NewDecoder(bytes.NewReader(o.body))
	for dec.More() {
		var l server.SweepLine
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("decoding line %d: %w", len(lines)+1, err)
		}
		lines = append(lines, l)
	}
	return lines, nil
}

func (w *sweepPortfolio) check() (int, string, error) {
	if len(w.sweeps) == 0 {
		return 0, "", nil
	}
	first := w.sweeps[0]
	wrong, err := checkSweep(w.rs, w.req, first)
	if err != nil {
		return wrong, "", err
	}
	// Later sweeps ran on fresh servers: each must compute the same
	// answers again.
	for s, lines := range w.sweeps[1:] {
		if len(lines) != len(first) {
			report("sweep %d: %d lines, want %d", s+1, len(lines), len(first))
			wrong += len(first)
			continue
		}
		for i := range lines {
			if !reflect.DeepEqual(lines[i], first[i]) {
				report("sweep %d line %d: differs from sweep 0", s+1, i)
				wrong++
			}
		}
	}
	return wrong, digestSweep(first), nil
}

func (w *sweepPortfolio) replay() ([]jobInput, workload.Spec) {
	jobs := make([]jobInput, w.opts.size.ReplayJobs)
	for i := range jobs {
		jobs[i] = jobInput{w.opts.size.jobSpec(w.opts.seed, streamReplay, i), missStrategy}
	}
	return jobs, w.opts.size.sweepSpec(w.opts.seed)
}

func (w *sweepPortfolio) close() { w.cl.CloseIdleConnections() }
