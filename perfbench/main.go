// Command perfbench is the mcpaging benchmark. It starts mcservd in
// this process behind a loopback listener, drives it with one named
// workload, checks every simulated result against sim.RunReference and
// prints the metrics BENCHMARK.json names. Run it from the repository
// root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload job-zipf-miss --seed 1 --seconds 35 --trace 0
//	bash perfbench/run.sh --workload job-trace-hit --seed 1 --seconds 35 --trace 1
//	bash perfbench/run.sh --calibrate --seconds 10
//	bash perfbench/run.sh --summarize runs/*.out
//
// The last line of a run is one JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, measured with tracing off; with --trace 1 they are
// the per-layer ones of a traced run. README.md describes the workloads
// and what each metric measures.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"mcpaging/internal/strategyspec"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed      = flag.Int64("seed", 1, "seed all inputs derive from")
		seconds   = flag.Int("seconds", 35, "measured time of the run, in seconds")
		traced    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		ratesPath = flag.String("rates", "perfbench/rates.json", "offered rates of the open-loop workloads")
		spans     = flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
		calib     = flag.Bool("calibrate", false, "measure saturated throughput and write half of it to -rates")
		summ      = flag.Bool("summarize", false, "print repeat statistics of the result lines in the files given as arguments")
	)
	flag.Parse()
	var err error
	switch {
	case *summ:
		err = summarize(os.Stdout, flag.Args())
	case *calib:
		err = calibrate(*seed, time.Duration(*seconds)*time.Second, *ratesPath)
	default:
		err = runMain(*name, *seed, *seconds, *traced, *ratesPath, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errWrong reports a run whose output check failed; its result line is
// still printed.
var errWrong = errors.New("the output check found wrong results")

func runMain(name string, seed int64, seconds, traced int, ratesPath, spansDir string) error {
	if seconds < 1 || (traced != 0 && traced != 1) {
		return fmt.Errorf("want --seconds ≥ 1 and --trace 0 or 1")
	}
	rf, err := readRates(ratesPath)
	if err != nil {
		return err
	}
	o := options{workload: name, seed: seed, window: time.Duration(seconds) * time.Second,
		traced: traced == 1, rate: rf.Rates[name], size: fullSizes}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	res, rec, err := run(o, rf.Rates, w)
	if err != nil {
		return err
	}
	if err := printResult(w, rec, res); err != nil {
		return err
	}
	if rec.tracer != nil {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := rec.tracer.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if !res.Correct {
		return errWrong
	}
	return nil
}

// machineInfo names the machine a figure was measured on.
type machineInfo struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

func thisMachine() machineInfo {
	return machineInfo{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: cpuModel()}
}

// record describes a run: the machine, the inputs, the load and what
// the output check saw. It is printed, as one JSON line, before the
// result.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Machine   machineInfo        `json:"machine"`
	Load      string             `json:"load"`
	Rates     map[string]float64 `json:"offered_rates"`
	P95       float64            `json:"job_p95_ms"`
	Samples   int                `json:"latency_samples"`
	BeyondP95 int                `json:"samples_beyond_p95"`
	// Latencies lists the samples when there are at most listedSamples
	// of them, too few for a percentile to mean much (the sweep
	// workload).
	Latencies []float64 `json:"latencies_ms,omitempty"`
	FailRatio float64   `json:"fail_ratio"`
	Wrong     int       `json:"wrong_results"`
	Digest    string    `json:"digest"`

	tracer *tracer
}

const listedSamples = 20

func newRecord(o options, rates map[string]float64) record {
	load := fmt.Sprintf("open loop, %.1f jobs/s, ≤%d connections", o.rate, runtime.NumCPU())
	if o.workload == "sweep-portfolio" {
		load = "closed loop, 1 caller, a fresh server per sweep"
	}
	return record{Workload: o.workload, Seed: o.seed, Seconds: o.window.Seconds(), Traced: o.traced,
		Machine: thisMachine(), Load: load, Rates: rates}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the peak resident set of this process, server included.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run performs one run: set-up, the timed window (two half windows, the
// second traced, for a traced run), the output check and, for a traced
// run, the layer replays. Diagnostics go to w.
func run(o options, rates map[string]float64, w io.Writer) (result, record, error) {
	rec := newRecord(o, rates)
	if !slices.Contains(workloadNames, o.workload) {
		return result{}, rec, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.workload != "sweep-portfolio" && !(o.rate > 0) {
		return result{}, rec, fmt.Errorf("no offered rate for %s: run --calibrate first", o.workload)
	}
	var setups []float64
	var b bench
	defer func() {
		if b != nil {
			b.close()
		}
	}()
	repeats := o.size.SetupRepeats
	if o.traced {
		repeats = 1
	}
	for r := 0; r < repeats; r++ {
		if b != nil {
			b.close()
		}
		b = newBench(o)
		t := time.Now()
		if err := b.setup(); err != nil {
			return result{}, rec, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	runtime.GC()

	var untraced, timed *phase
	var before, after runtime.MemStats
	var err error
	if o.traced {
		if untraced, err = b.drive(o.window/2, nil); err != nil {
			return result{}, rec, err
		}
		rec.tracer = newTracer()
		runtime.ReadMemStats(&before)
		timed, err = b.drive(o.window-o.window/2, rec.tracer)
		runtime.ReadMemStats(&after)
	} else {
		timed, err = b.drive(o.window, nil)
	}
	if err != nil {
		return result{}, rec, err
	}
	// Read before the output check, whose reference runs would
	// otherwise set the peak.
	peakRSS := peakRSSMB()
	wrong, digest, err := b.check()
	if err != nil {
		return result{}, rec, fmt.Errorf("output check: %w", err)
	}
	lat := timed.latencies()
	attempted, failed := timed.attempted, timed.failed+wrong
	if untraced != nil {
		attempted += untraced.attempted
		failed += untraced.failed
	}
	rec.P95 = sliceP95(lat)
	rec.Samples = len(lat)
	if len(lat) <= listedSamples {
		rec.Latencies = lat
	}
	rec.BeyondP95 = len(lat) - int(math.Ceil(0.95*float64(len(lat))))
	rec.FailRatio = float64(failed) / float64(max(attempted, 1))
	rec.Wrong, rec.Digest = wrong, digest
	res := result{Correct: wrong == 0, Attempted: attempted, Failed: failed}

	measured := map[string]float64{}
	defs := endToEnd
	if o.traced {
		jobs, sweep := b.replay()
		if err := replayJobs(rec.tracer, o.size, jobs); err != nil {
			return result{}, rec, fmt.Errorf("job replay: %w", err)
		}
		if err := replaySweep(rec.tracer, o.size, sweep); err != nil {
			return result{}, rec, fmt.Errorf("sweep replay: %w", err)
		}
		layerMetrics(measured, o.size, untraced, timed, rec.tracer, before, after)
		rec.tracer.report(w)
		defs = perLayer()
	} else {
		measured["setup_s"] = median(setups)
		measured["job_p50_ms"] = median(lat)
		measured["cells_per_s"] = timed.cellsPerS
		measured["peak_rss_mb"] = peakRSS
	}
	res.Metrics, err = fill(defs, measured)
	return res, rec, err
}

// layerMetrics derives the per-layer metrics from the traced window,
// the untraced one before it, and the replay spans.
func layerMetrics(m map[string]float64, sz sizes, untraced, timed *phase, tr *tracer, before, after runtime.MemStats) {
	job := func(name string) []float64 {
		return tr.durations(func(s span) bool {
			return s.Name == name && s.Job <= replayJobID && s.Job > replaySweepID
		})
	}
	sweep := func(name, attr string) []float64 {
		return tr.durations(func(s span) bool {
			return s.Name == name && s.Job == replaySweepID && (attr == "" || s.Attr == attr)
		})
	}
	m["workload.generate_ms"] = median(job("workload.generate"))
	m["trace.resolve_ms"] = median(job("trace.resolve"))
	key := median(job("server.jobkey"))
	m["server.jobkey_ms"] = key
	m["server.jobkey_ns_per_req"] = key * 1e6 / float64(sz.Cores*sz.Length)
	m["sim.bind_ms"] = median(job("sim.bind"))
	run := median(job("sim.run"))
	m["sim.run_ms"] = run
	m["telemetry.run_overhead_pct"] = (median(job("sim.run_telemetry")) - run) / run * 100
	var events float64 // each telemetry.observe span carries its event count
	observe := tr.durations(func(s span) bool {
		if s.Name != "telemetry.observe" {
			return false
		}
		_, err := fmt.Sscan(s.Attr, &events)
		return err == nil
	})
	m["telemetry.ns_per_event"] = median(observe) * 1e6 / events

	m["server.handler_ms"] = median(tr.durations(func(s span) bool { return s.Name == "server.handler" }))
	m["server.service_ms"] = median(timed.service)
	m["server.outside_ms"] = median(timed.outside)
	ops := float64(max(timed.attempted, 1))
	m["server.cache_hit_ratio"] = float64(timed.hits) / ops
	m["server.refused_ratio"] = float64(timed.refused) / ops
	m["server.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
	m["server.alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / ops

	reqs := float64(sz.Cores * sz.SweepLength)
	for _, spec := range strategyspec.Portfolio() {
		m["sim.mreq_per_s."+sanitize(spec)] = reqs / median(sweep("sim.run", specAt(spec, sz.runK()))) / 1e3
	}
	for _, pol := range cachePolicies {
		m["cache.macc_per_s."+pol] = reqs / median(sweep("cache.drive", pol)) / 1e3
	}
	total := 0.0
	for _, d := range sweep("strategyspec.build", "") {
		total += d
	}
	m["strategyspec.build_ms"] = total
	m["strategyspec.build_ms.sP-opt-LRU"] = median(sweep("strategyspec.build", specAt("sP[opt](LRU)", sz.runK())))
	m["strategyspec.build_ms.sP-opt-FITF"] = median(sweep("strategyspec.build", specAt("sP[opt](FITF)", sz.runK())))

	var late []float64
	for i := range timed.ops {
		late = append(late, float64(timed.ops[i].late())/1e6)
	}
	m["bench.send_late_p95_ms"] = percentile(late, 0.95)
	base := median(untraced.latencies())
	m["bench.trace_overhead_pct"] = (median(timed.latencies()) - base) / base * 100
}

// printResult prints the run record and a short summary, then the
// result as the last line.
func printResult(w io.Writer, rec record, res result) error {
	b, err := json.Marshal(struct {
		Record record `json:"record"`
	}{rec})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	fmt.Fprintf(w, "%s seed %d: %d attempted, %d failed (fail_ratio %.4f), %d wrong, digest %s, job_p95_ms %.3f over %d latency samples (%d beyond p95)\n",
		rec.Workload, rec.Seed, res.Attempted, res.Failed, rec.FailRatio, rec.Wrong, rec.Digest, rec.P95, rec.Samples, rec.BeyondP95)
	if b, err = json.Marshal(res); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
