package server

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateMetrics = flag.Bool("update", false, "rewrite the /metrics golden files")

// goldenMetricsDir holds every committed Prometheus exposition golden:
// the per-run telemetry snapshot under golden/, the service writers
// beside it.
const goldenMetricsDir = "../telemetry/testdata"

// checkGolden compares got with the named golden file byte for byte,
// rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(goldenMetricsDir, name)
	if *updateMetrics {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestMetricsGolden pins the bytes of mcservd's server-level /metrics
// section for fixed counters and gauges: once before any job has
// finished (empty latency window, no cache traffic, draining) and once
// with a window of latencies. The cache budget of one million entries
// pins the %g gauge format (1e+06). Regenerate with
//
//	go test ./internal/server -run MetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	cases := []struct {
		file string
		g    gauges
		lat  []time.Duration
	}{
		{"mcservd_metrics_empty.prom", gauges{queueCap: 8, workers: 2, cacheCap: 1_000_000}, nil},
		{"mcservd_metrics.prom", gauges{
			queueDepth: 3, queueCap: 8, workers: 2, cacheEntries: 17, cacheCap: 1_000_000,
			cacheHits: 40, cacheMisses: 9, ready: true,
		}, []time.Duration{250 * time.Millisecond, 1500 * time.Millisecond, 3 * time.Millisecond, 42 * time.Millisecond, 1234567 * time.Microsecond}},
	}
	for _, tc := range cases {
		var m serverMetrics
		m.accepted.Store(12)
		m.rejected.Store(2)
		m.completed.Store(int64(len(tc.lat)))
		m.failed.Store(1)
		m.timeouts.Store(1)
		m.coalesced.Store(4)
		for _, d := range tc.lat {
			m.observeLatency(d)
		}
		var b bytes.Buffer
		if err := m.writePrometheus(&b, tc.g); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tc.file, b.Bytes())
	}
}
