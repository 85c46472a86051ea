package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"
)

// tinySizes shrink every input so that a whole run takes about a
// second.
var tinySizes = sizes{
	Cores: 2, Length: 2048, Pages: 64, K: 16, Tau: 2,
	HitInstances: 2, SweepLength: 512, SweepKs: []int{8, 16},
	SetupRepeats: 2, ReplayJobs: 2, DriveRepeats: 1,
}

func tiny(workload string, seed int64, traced bool) options {
	return options{workload: workload, seed: seed, window: time.Second, traced: traced, rate: 40, size: tinySizes}
}

// benchmarkFile is the part of BENCHMARK.json the test compares with
// the metric lists.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func sameDefs(t *testing.T, what string, got, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s[%d] = %+v, BENCHMARK.json lists %+v", what, i, got[i], want[i])
		}
	}
}

// TestMetricListsMatchBenchmarkFile pins the metric lists and their
// units to BENCHMARK.json, and checks that every workload it lists
// exists.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	sameDefs(t, "end_to_end", endToEnd, bf.EndToEnd)
	sameDefs(t, "per_layer", perLayer(), bf.PerLayer)
	for _, w := range bf.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json lists workload %q; the benchmark has %v", w.Name, workloadNames)
		}
	}
}

// TestTinyRuns runs every workload untraced and traced at tiny sizes:
// every named metric is emitted with its unit, the output check passes
// and the cache-hit guards hold.
func TestTinyRuns(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, rec, err := run(tiny(name, 7, traced), nil, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := bf.EndToEnd
			if traced {
				defs = bf.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, d.Name, v, d.Unit)
				}
			}
			if !traced {
				for _, d := range bf.EndToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, res.Metrics[d.Name].Value)
					}
				}
				continue
			}
			want := 0.0
			if name == "job-trace-hit" {
				want = 1
			}
			if got := res.Metrics["server.cache_hit_ratio"].Value; got != want {
				t.Errorf("%s: server.cache_hit_ratio = %v, want %v", name, got, want)
			}
			if rec.tracer == nil || len(rec.tracer.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
}

// TestOutputCheckCatchesCorruption corrupts one answer of each kind the
// check sees — a computed job, a cache hit, a computed sweep cell and a
// repeated sweep cell — and expects the check to count it.
func TestOutputCheckCatchesCorruption(t *testing.T) {
	drive := func(name string) bench {
		b := newBench(tiny(name, 3, false))
		t.Cleanup(b.close)
		if err := b.setup(); err != nil {
			t.Fatal(err)
		}
		// Two windows, so the sweep workload answers at least twice.
		for i := 0; i < 2; i++ {
			if _, err := b.drive(time.Second/2, nil); err != nil {
				t.Fatal(err)
			}
		}
		if wrong, _, err := b.check(); err != nil || wrong != 0 {
			t.Fatalf("%s: before corruption: %d wrong, %v", name, wrong, err)
		}
		return b
	}
	expectWrong := func(b bench, what string) {
		t.Helper()
		wrong, _, err := b.check()
		if err != nil {
			t.Fatal(err)
		}
		if wrong != 1 {
			t.Errorf("%s: the check counted %d wrong results, want 1", what, wrong)
		}
	}

	miss := drive("job-zipf-miss").(*zipfMiss)
	miss.answers[len(miss.answers)-1].resp.Result.Faults[0]++
	expectWrong(miss, "computed job")

	hit := drive("job-trace-hit").(*traceHit)
	hit.hits[0].resp.Result.Makespan++
	expectWrong(hit, "cache hit")

	sweep := drive("sweep-portfolio").(*sweepPortfolio)
	if len(sweep.sweeps) < 2 {
		t.Fatalf("sweep answered %d times, want ≥ 2", len(sweep.sweeps))
	}
	sweep.sweeps[1][5].Result.TotalHits++
	expectWrong(sweep, "repeated sweep cell")
	sweep.sweeps[1][5].Result.TotalHits--
	sweep.sweeps[0][5].Key = "0" + sweep.sweeps[0][5].Key[1:]
	// The first sweep is checked against the reference; every later
	// sweep now differs from it too.
	wrong, _, err := sweep.check()
	if err != nil {
		t.Fatal(err)
	}
	if wrong != len(sweep.sweeps) {
		t.Errorf("computed sweep cell: the check counted %d wrong results, want %d", wrong, len(sweep.sweeps))
	}
}

// TestDigestRepeatsForASeed runs the same tiny workload twice per seed.
func TestDigestRepeatsForASeed(t *testing.T) {
	digests := map[int64]string{}
	for _, seed := range []int64{5, 5, 6} {
		_, rec, err := run(tiny("job-zipf-miss", seed, false), nil, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := digests[seed]; ok && d != rec.Digest {
			t.Errorf("seed %d: digest %s, then %s", seed, d, rec.Digest)
		}
		digests[seed] = rec.Digest
	}
	if digests[5] == digests[6] {
		t.Errorf("seeds 5 and 6 share the digest %s", digests[5])
	}
}

// TestQuartilesMatchPython pins the quartile helper to Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{4, 1}, 0.25, 4.75},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestSelfTimes subtracts the union of a span's children, counting an
// overlap between children once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},
		{ID: 4, Parent: 3, Start: 35, End: 45},
	}
	got := selfTimes(spans)
	want := []time.Duration{60, 30, 10, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}
