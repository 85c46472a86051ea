package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mcpaging/internal/specargs"
)

// local reports whether a capacity spec names a family that reads files
// on the host, which no network request may do.
func local(spec string) bool {
	name, _, _ := specargs.Split(strings.TrimSpace(spec))
	return name == "trace"
}

// FuzzResolveRequest feeds arbitrary bodies, as a job and as a sweep,
// through the readers and resolvers both network front-ends share,
// under a small request budget. Nothing may panic; an accepted capacity
// never names a file-reading family; every accepted sweep cell carries
// a schedule exactly when it names a capacity, bound to its own K; and
// the cell count is the product of the grid's dimensions.
func FuzzResolveRequest(f *testing.F) {
	for _, seed := range []string{
		`{"trace":{"inline":[[1,2,3],[10,11]]},"strategy":"S(LRU)","k":4,"tau":1,"capacity":"step(to=50%,at=4)"}`,
		`{"trace":{"workload":{"cores":2,"length":16,"pages":8,"kind":"zipf","seed":1}},"strategy":"S(FIFO)","k":3,"capacity":"periodic(lo=2,period=6)"}`,
		`{"trace":{"inline":[[1],[2]]},"strategy":"S(LRU)","k":2,"capacity":"trace(path=/dev/null)"}`,
		`{"trace":{"binary_b64":"TUNQVAEBgICAgAEA"},"strategy":"S(LRU)","k":4}`,
		`{"trace":{"inline":[[1,2],[3]]},"ks":[2,4],"taus":[0,1],"capacities":["","ramp(to=1,end=9)"],"strategies":["S(LRU)","dP(LRU)"]}`,
		`{"trace":{"inline":[[1,2],[3]]},"ks":[2],"taus":[0],"capacities":[" trace(path=x)"],"strategies":["S(LRU)"]}`,
		`{"trace":{"inline":[[1]]},"ks":[1,1,1,1,1,1,1,1,1],"taus":[0,0,0,0,0,0,0,0],"strategies":["S(LRU)","S(LRU)","S(LRU)","S(LRU)"]}`,
		`{}`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	const budget = 256
	f.Fuzz(func(t *testing.T, body []byte) {
		post := func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		}
		if job, err := ReadJob(httptest.NewRecorder(), post(), 1<<16); err == nil {
			if rs, params, key, err := job.Resolve(budget); err == nil {
				if rs.TotalLen() > budget || key == "" {
					t.Fatalf("accepted %d requests (budget %d), key %q", rs.TotalLen(), budget, key)
				}
				if (params.Capacity != nil) != (job.Capacity != "") || local(job.Capacity) {
					t.Fatalf("capacity %q accepted as %v", job.Capacity, params.Capacity)
				}
			}
		}
		sw, err := ReadSweep(httptest.NewRecorder(), post(), 1<<16)
		if err != nil {
			return
		}
		_, cells, err := sw.Resolve(budget)
		if err != nil {
			return
		}
		if want := len(sw.Ks) * len(sw.Taus) * max(1, len(sw.Capacities)) * len(sw.Strategies); len(cells) != want {
			t.Fatalf("%d cells, want %d", len(cells), want)
		}
		for _, c := range cells {
			if (c.Params.Capacity != nil) != (c.Capacity != "") || local(c.Capacity) {
				t.Fatalf("cell %+v: capacity %q accepted as %v", c, c.Capacity, c.Params.Capacity)
			}
			if c.Params.Capacity != nil && c.Params.Capacity.Base() != c.K {
				t.Fatalf("cell %+v: schedule bound to %d", c, c.Params.Capacity.Base())
			}
		}
	})
}
