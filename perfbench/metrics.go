package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"

	"mcpaging/internal/stats"
	"mcpaging/internal/strategyspec"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json: the end-to-end list
// is what an untraced run prints, the per-layer list what a traced run
// prints, and the package test checks that the file lists the same
// names with the same units.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of mcservd sees, measured with
// tracing off. README.md defines each one on every workload. The 95th
// percentile latency is printed in the run record rather than here:
// on a shared host its spread over ten runs reached 56%, more than any
// bound a gated metric may have.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_p50_ms", "ms"},
	{"cells_per_s", "cells/s"},
	{"peak_rss_mb", "MB"},
}

// cachePolicies are the cache.Policy implementations in the strategy
// portfolio's online picks (FWF is a strategy, not a cache.Policy).
var cachePolicies = []string{"LRU", "FIFO", "CLOCK", "LFU", "MARK", "RMARK", "ARC", "SLRU", "LRU2", "TINYLFU"}

// perLayer are the metrics of the traced run. The spec- and
// policy-indexed families are generated from the portfolio so that a
// strategy added to strategyspec.Portfolio shows up as a missing name in
// the package test rather than silently going unmeasured.
func perLayer() []metricDef {
	defs := []metricDef{
		{"workload.generate_ms", "ms"},
		{"trace.resolve_ms", "ms"},
		{"server.jobkey_ms", "ms"},
		{"server.jobkey_ns_per_req", "ns/req"},
		{"server.handler_ms", "ms"},
		{"server.service_ms", "ms"},
		{"server.outside_ms", "ms"},
		{"server.cache_hit_ratio", "ratio"},
		{"server.refused_ratio", "ratio"},
		{"server.allocs_per_op", "allocs"},
		{"server.alloc_kb_per_op", "KB"},
		{"sim.bind_ms", "ms"},
		{"sim.run_ms", "ms"},
	}
	for _, spec := range strategyspec.Portfolio() {
		defs = append(defs, metricDef{"sim.mreq_per_s." + sanitize(spec), "Mreq/s"})
	}
	for _, pol := range cachePolicies {
		defs = append(defs, metricDef{"cache.macc_per_s." + pol, "Macc/s"})
	}
	return append(defs,
		metricDef{"strategyspec.build_ms", "ms"},
		metricDef{"strategyspec.build_ms.sP-opt-LRU", "ms"},
		metricDef{"strategyspec.build_ms.sP-opt-FITF", "ms"},
		metricDef{"telemetry.ns_per_event", "ns"},
		metricDef{"telemetry.run_overhead_pct", "%"},
		metricDef{"bench.send_late_p95_ms", "ms"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
}

var unsafeRun = regexp.MustCompile(`[^A-Za-z0-9_.-]+`)

// sanitize maps a strategy spec onto the metric-name alphabet:
// S(LRU) → S-LRU, sP[opt](FITF) → sP-opt-FITF.
func sanitize(spec string) string {
	return strings.Trim(unsafeRun.ReplaceAllString(spec, "-"), "-")
}

// value is one metric as printed on the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line every run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// fill builds the metrics map of defs from the measured values; a
// definition without a measurement is a bug in the benchmark.
func fill(defs []metricDef, measured map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := measured[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// median returns the middle of xs (mean of the two middle values for an
// even count), NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Summarize(xs).Median
}

// percentile is the nearest-rank q-quantile (0 < q ≤ 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// p95Slice is the number of consecutive samples each 95th percentile
// is taken over: enough that ten samples lie beyond it.
const p95Slice = 200

// sliceP95 cuts xs, in the order the operations were due, into equal
// consecutive slices of at least p95Slice samples and returns the median
// of the slices' 95th percentiles; with fewer samples, the 95th
// percentile of all of them. A slow spell of the machine then moves one
// slice's figure rather than the run's.
func sliceP95(xs []float64) float64 {
	n := len(xs) / p95Slice
	if n < 2 {
		return percentile(xs, 0.95)
	}
	var p95s []float64
	for i := 0; i < n; i++ {
		p95s = append(p95s, percentile(xs[i*len(xs)/n:(i+1)*len(xs)/n], 0.95))
	}
	return median(p95s)
}

// quartiles returns the first and third quartiles of xs by the
// exclusive method — the default of Python's statistics.quantiles(n=4),
// which is how the benchmark's run-to-run spread is judged. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// summarize reads result lines from the given files (each the saved
// standard output of one or more runs), groups every metric across the
// runs and prints its repeat statistics: the median, the quartiles, the
// quartile spread as a share of the median, and mean ± 95% CI.
func summarize(w io.Writer, files []string) error {
	values := map[string][]float64{}
	units := map[string]string{}
	var runs, failed, wrong int
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 || line[0] != '{' {
				continue
			}
			var r result
			if json.Unmarshal(line, &r) != nil || r.Metrics == nil {
				continue
			}
			runs++
			failed += r.Failed
			if !r.Correct {
				wrong++
			}
			for name, v := range r.Metrics {
				values[name] = append(values[name], v.Value)
				units[name] = v.Unit
			}
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	if runs == 0 {
		return fmt.Errorf("no result lines in %d files", len(files))
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "runs %d, failed operations %d, incorrect runs %d\n", runs, failed, wrong)
	fmt.Fprintf(w, "%-36s %8s %4s %12s %12s %12s %8s  %s\n", "metric", "unit", "n", "median", "q1", "q3", "iqr/med", "mean ± ci95")
	for _, n := range names {
		xs := values[n]
		s := stats.Summarize(xs)
		q1, q3 := s.Median, s.Median
		if len(xs) >= 2 {
			q1, q3 = quartiles(xs)
		}
		spread := math.NaN()
		if s.Median != 0 {
			spread = (q3 - q1) / math.Abs(s.Median)
		}
		fmt.Fprintf(w, "%-36s %8s %4d %12.4f %12.4f %12.4f %8.4f  %.4f ± %.4f\n",
			n, units[n], s.N, s.Median, q1, q3, spread, s.Mean, s.CI95())
	}
	return nil
}
