package fleet

import (
	"bytes"
	"flag"
	"os"
	"sync/atomic"
	"testing"
)

var updateMetrics = flag.Bool("update", false, "rewrite the /metrics golden file")

// goldenMetrics sits beside the per-run telemetry and mcservd /metrics
// goldens.
const goldenMetrics = "../telemetry/testdata/mcfleet_metrics.prom"

// TestMetricsGolden pins the bytes of mcfleet's /metrics for fixed
// counters and a fixed worker snapshot. One worker ID carries a quote
// and a backslash, pinning the %q label escaping; the latencies and
// weights pin the %g sample format. Regenerate with
//
//	go test ./internal/fleet -run MetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	var m fleetMetrics
	for i, c := range []*atomic.Int64{
		&m.jobs, &m.sweeps, &m.cells, &m.cellErrors, &m.routedOwner,
		&m.routedSpill, &m.failovers, &m.retryRounds, &m.quotaDenied, &m.shed,
	} {
		c.Store(int64(3*i + 1))
	}
	m.cellsInflight.Store(5)
	workers := []WorkerInfo{
		{ID: "http://127.0.0.1:8081", Status: StatusHealthy.String(), LatencyMS: 12.5, Weight: 1, Inflight: 2, Served: 1000000, ProbeFails: 0},
		{ID: "http://127.0.0.1:8082", Status: StatusDown.String(), LatencyMS: 0.125, Weight: 0.3333333333333333, Inflight: 0, Served: 7, ProbeFails: 3},
		{ID: `w"3\east`, Status: StatusDraining.String(), LatencyMS: 2500, Weight: 0.05, Inflight: 4, Served: 0, ProbeFails: 12},
	}
	var b bytes.Buffer
	if err := m.writePrometheus(&b, workers, 3, true); err != nil {
		t.Fatal(err)
	}
	if *updateMetrics {
		if err := os.WriteFile(goldenMetrics, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("mcfleet /metrics drifted:\ngot:\n%s\nwant:\n%s", b.Bytes(), want)
	}
}
