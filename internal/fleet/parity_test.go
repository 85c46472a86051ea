package fleet

import (
	"encoding/base64"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/server"
	"mcpaging/internal/trace"
)

// TestFrontEndParity posts the same malformed job and sweep bodies to
// a standalone mcservd and to an mcfleet gateway over an in-process
// worker, both under the same request budget, and requires the same
// status and the same {"error": ...} body from each: the two services
// read and resolve requests through one path. A refused body must
// never be routed, and a file-reading trace(...) capacity must be
// refused by name on both.
func TestFrontEndParity(t *testing.T) {
	const budget = 64
	solo := server.New(server.Config{Workers: 1, MaxRequests: budget})
	t.Cleanup(solo.Drain)
	direct := httptest.NewServer(solo.Handler())
	t.Cleanup(direct.Close)
	f := newTestFleet(t, []string{newWorker(t, "w1").URL}, DispatcherConfig{MaxRequests: budget}, GatewayConfig{QuotaRate: -1})

	sched := filepath.Join(t.TempDir(), "sched.txt")
	if err := os.WriteFile(sched, []byte("0 100%\n5 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var bin strings.Builder
	long := make(core.Sequence, budget)
	for i := range long {
		long[i] = core.PageID(i)
	}
	if err := trace.WriteBinary(&bin, core.RequestSet{long, {1000}}); err != nil {
		t.Fatal(err)
	}
	overBudget := server.TraceInput{BinaryB64: base64.StdEncoding.EncodeToString([]byte(bin.String()))}

	job := func(edit func(*server.JobRequest)) server.JobRequest {
		req := server.JobRequest{Trace: fleetTrace(), Strategy: "S(LRU)", K: 4, Tau: 1, Seed: 1}
		edit(&req)
		return req
	}
	sweep := func(edit func(*server.SweepRequest)) server.SweepRequest {
		req := fleetSweepRequest()
		edit(&req)
		return req
	}
	rows := []struct {
		name  string
		job   server.JobRequest
		sweep server.SweepRequest
		want  string // a substring both error bodies must carry
	}{
		{"missing strategy",
			job(func(r *server.JobRequest) { r.Strategy = "" }),
			sweep(func(r *server.SweepRequest) { r.Strategies = nil }), ""},
		{"unknown capacity family",
			job(func(r *server.JobRequest) { r.Capacity = "nope()" }),
			sweep(func(r *server.SweepRequest) { r.Capacities = []string{"nope()"} }), "unknown schedule"},
		{"file-reading trace capacity",
			job(func(r *server.JobRequest) { r.Capacity = "trace(path=" + sched + ")" }),
			sweep(func(r *server.SweepRequest) { r.Capacities = []string{"trace(path=" + sched + ")"} }), "portable"},
		// A job's K is only held to K >= 1: below the core count the
		// run itself decides, as the model allows idle cores.
		{"K below the core count",
			job(func(r *server.JobRequest) { r.K = 0 }),
			sweep(func(r *server.SweepRequest) { r.Ks = []int{1} }), "K="},
		{"negative tau",
			job(func(r *server.JobRequest) { r.Tau = -1 }),
			sweep(func(r *server.SweepRequest) { r.Taus = []int{-1} }), "tau"},
		{"over-budget binary trace",
			job(func(r *server.JobRequest) { r.Trace = overBudget }),
			sweep(func(r *server.SweepRequest) { r.Trace = overBudget }), "budget of 64"},
		{"bad trace and bad capacity",
			job(func(r *server.JobRequest) { r.Trace = overBudget; r.Capacity = "nope()" }),
			sweep(func(r *server.SweepRequest) { r.Trace = overBudget; r.Capacities = []string{"nope()"} }), ""},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, ep := range []struct {
				path string
				body interface{}
			}{{"/v1/jobs", row.job}, {"/v1/sweep", row.sweep}} {
				dresp := postJSON(t, direct.URL+ep.path, ep.body)
				dbody := readBody(t, dresp)
				fresp := postJSON(t, f.ts.URL+ep.path, ep.body)
				fbody := readBody(t, fresp)
				if dresp.StatusCode != http.StatusBadRequest || fresp.StatusCode != dresp.StatusCode {
					t.Errorf("%s: status mcservd %d, mcfleet %d, want 400 from both", ep.path, dresp.StatusCode, fresp.StatusCode)
				}
				if string(fbody) != string(dbody) {
					t.Errorf("%s: bodies differ:\nmcservd: %s\nmcfleet: %s", ep.path, dbody, fbody)
				}
				if !strings.Contains(string(dbody), row.want) {
					t.Errorf("%s: error %s does not name %q", ep.path, dbody, row.want)
				}
			}
		})
	}
	if f.met.jobs.Load() != 0 || f.met.sweeps.Load() != 0 {
		t.Fatalf("refused requests were routed: jobs=%d sweeps=%d", f.met.jobs.Load(), f.met.sweeps.Load())
	}

	// A portable schedule on the same job is accepted end to end by both.
	ok := job(func(r *server.JobRequest) { r.Capacity = "step(to=50%,at=4)" })
	for _, url := range []string{direct.URL, f.ts.URL} {
		resp := postJSON(t, url+"/v1/jobs", ok)
		if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: portable capacity: status %d: %s", url, resp.StatusCode, body)
		}
	}
}
