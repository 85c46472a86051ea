package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/workload"
)

func TestSessionRoundTrip(t *testing.T) {
	rs := core.RequestSet{{1, 2, 3, 1, 2, 4, 1}, {9, 8, 9, 7, 8, 9, 7}}
	params := core.Params{K: 4, Tau: 3}
	st, err := strategyspec.Build("S(LRU)", rs, params.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "nested", "run")
	sess, err := Start(SessionConfig{
		Dir:           dir,
		Collector:     Config{Cores: 2, Params: params, Window: 8},
		CaptureEvents: true,
		Manifest:      Manifest{Tool: "test", Source: "inline", Cores: 2, K: params.K, Tau: params.Tau},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(core.Instance{R: rs, P: params}, st, sess.Observer())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(res); err != nil {
		t.Fatal(err)
	}
	for _, name := range goldenFiles {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("session did not write %s: %v", name, err)
		}
		if len(b) == 0 {
			t.Fatalf("session wrote empty %s", name)
		}
	}
	var man Manifest
	b, _ := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if man.Toolchain == "" || man.Window != 8 {
		t.Fatalf("manifest defaults not filled: %+v", man)
	}
	// The collector's totals must agree with the simulation result.
	tot := sess.Collector().Totals()
	for j := range tot.Faults {
		if tot.Faults[j] != res.Faults[j] || tot.Hits[j] != res.Hits[j] {
			t.Fatalf("core %d: collector %d/%d faults/hits, result %d/%d",
				j, tot.Faults[j], tot.Hits[j], res.Faults[j], res.Hits[j])
		}
	}
}

func TestSessionAbort(t *testing.T) {
	dir := t.TempDir()
	sess, err := Start(SessionConfig{
		Dir:           dir,
		Collector:     Config{Cores: 1, Params: core.Params{K: 2, Tau: 1}},
		CaptureEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess.Observer()(sim.Event{Time: 0, Core: 0, Page: 1, Fault: true, Victim: core.NoPage})
	if err := sess.Abort(); err != nil {
		t.Fatal(err)
	}
	// The partial event stream survives for post-mortems; no other
	// export is written.
	if _, err := os.Stat(filepath.Join(dir, "events.jsonl")); err != nil {
		t.Fatalf("events.jsonl missing after abort: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "windows.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("windows.jsonl should not exist after abort, stat err = %v", err)
	}
	if err := Start2ndSessionSameDir(dir); err != nil {
		t.Fatal(err)
	}
}

// Start2ndSessionSameDir checks directories are reusable (files are
// overwritten, not appended).
func Start2ndSessionSameDir(dir string) error {
	sess, err := Start(SessionConfig{
		Dir:       dir,
		Collector: Config{Cores: 1, Params: core.Params{K: 2, Tau: 1}},
	})
	if err != nil {
		return err
	}
	return sess.Close(sim.Result{Faults: []int64{0}, Hits: []int64{0}, Finish: []int64{0}})
}

// BenchmarkCollectorObserve replays the event stream of mcservd's
// baseline job — a 4×64K Zipf request set over 1024 pages per core, with
// core j's pages at j·65536+x, under S(LRU) at K 256, τ 8 — through a
// fresh Collector per run, window rotation included.
func BenchmarkCollectorObserve(b *testing.B) {
	rs, err := workload.Generate(workload.Spec{Cores: 4, Length: 65536, Pages: 1024, Kind: workload.Zipf, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	params := core.Params{K: 256, Tau: 8}
	evs := record(b, rs, "S(LRU)", params)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		c := New(Config{Cores: 4, Params: params})
		for _, e := range evs[:min(len(evs), b.N-n)] {
			c.Observe(e)
		}
		n += len(evs)
	}
}
