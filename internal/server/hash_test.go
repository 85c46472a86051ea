package server

import (
	"bytes"
	"encoding/base64"
	"os"
	"path/filepath"
	"testing"

	"mcpaging/internal/capacity"
	"mcpaging/internal/core"
	"mcpaging/internal/trace"
	"mcpaging/internal/workload"
)

func TestJobKeyCanonicalAcrossInputModes(t *testing.T) {
	rs := core.RequestSet{{1, 2, 3, 1}, {9, 8, 9}}
	p := core.Params{K: 4, Tau: 2}

	// The same instance through the inline and binary paths must reach
	// the same key: the key hashes content, not transport.
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, rs); err != nil {
		t.Fatal(err)
	}
	in := TraceInput{BinaryB64: base64.StdEncoding.EncodeToString(buf.Bytes())}
	decoded, err := in.Resolve(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	k1 := JobKey(rs, "S(LRU)", p, 1)
	k2 := JobKey(decoded, "S(LRU)", p, 1)
	if k1 != k2 {
		t.Fatalf("binary round-trip changed the key: %s vs %s", k1, k2)
	}

	// Spec whitespace is canonicalized away, matching Build's trim.
	if JobKey(rs, "  S(LRU)  ", p, 1) != k1 {
		t.Fatal("spec whitespace changed the key")
	}

	// Every parameter is load-bearing.
	distinct := map[string]string{
		"base":     k1,
		"spec":     JobKey(rs, "S(FIFO)", p, 1),
		"k":        JobKey(rs, "S(LRU)", core.Params{K: 5, Tau: 2}, 1),
		"tau":      JobKey(rs, "S(LRU)", core.Params{K: 4, Tau: 3}, 1),
		"seed":     JobKey(rs, "S(LRU)", p, 2),
		"capacity": jobKeyWithCapacity(t, rs, p),
		"requests": JobKey(core.RequestSet{{1, 2, 3, 1}, {9, 8, 8}}, "S(LRU)", p, 1),
		// Same flattened content, different core structure.
		"shape": JobKey(core.RequestSet{{1, 2, 3, 1, 9}, {8, 9}}, "S(LRU)", p, 1),
	}
	seen := map[string]string{}
	for name, k := range distinct {
		if prev, ok := seen[k]; ok {
			t.Fatalf("key collision between %s and %s", prev, name)
		}
		seen[k] = name
	}
}

// TestJobKeyGolden pins keys computed by the varint-at-a-time JobKey
// that preceded block hashing. The key is the fleet's routing key and
// the result cache's address, so any change to the byte stream — or to
// how it is fed to the hash — must show up here.
func TestJobKeyGolden(t *testing.T) {
	zipf, err := workload.Generate(workload.Spec{Kind: workload.Zipf, Cores: 4, Length: 64 << 10, Pages: 1024, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sched := func(spec string) core.CapacitySchedule {
		s, err := capacity.ParseSchedule(spec, 16)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	small := core.RequestSet{{1, 2, 3, 1}, {9, 8, 9}}
	for _, c := range []struct {
		name string
		key  string
		want string
	}{
		{"one-core", JobKey(core.RequestSet{{1, 2, 3, 1, 2, 4, 5, 1}}, "S(LRU)", core.Params{K: 4, Tau: 2}, 1),
			"7f49a3274a17693e97930b9c0af7988cc27f9e8700cfbbb8ee433f4ac1f973c6"},
		{"zipf-4x64K", JobKey(zipf, "S(LRU)", core.Params{K: 1024, Tau: 4}, 0),
			"ddb63e228b6c05e2788afd2126070e00e7275bab00944c0a37c544affd8d00f1"},
		{"empty-core", JobKey(core.RequestSet{{5, 6, 7}, {}, {8, 8, 9}}, "S(FIFO)", core.Params{K: 3, Tau: 1}, 3),
			"64a77b49b306d86961c22c2ddb055af13ae0107d8562e8bb1f2c2299cd7d57e7"},
		{"capacity-step", JobKey(small, "S(LRU)", core.Params{K: 16, Tau: 2, Capacity: sched("step(to=50%,at=2)")}, 1),
			"bb19dbdf8b57fe37a7b2978aa52fcda3518ae5ac8b7a1107c06212f013b13ec0"},
		{"capacity-periodic", JobKey(zipf, "sP[even](LRU)", core.Params{K: 16, Tau: 2, Capacity: sched("periodic(lo=8,period=2048,duty=0.5)")}, -5),
			"e2594abd097875cfbe0c45df468437e9f83cec3b85b7b32e038e35d015d0e22b"},
		{"padded-spec", JobKey(small, " \t dP(LRU)\n ", core.Params{K: 4, Tau: 2}, 1),
			"cb416916230b50c4be20145c5d640b9430b27b8a0ced1cce5e03b07533e831ee"},
		{"large-ids", JobKey(core.RequestSet{{1<<31 - 1, 0, 1 << 20, 63, 64, 8191, 8192}}, "S(LRU)", core.Params{K: 2, Tau: 0}, 1<<40),
			"acd715c794da2bc39b3b74b7c34fea11e6ef221d44e5f6cb5ccfcdc23e6e2605"},
	} {
		if c.key != c.want {
			t.Errorf("%s: key %s, want %s", c.name, c.key, c.want)
		}
	}
}

// jobKeyWithCapacity keys the base job with a capacity schedule
// attached; the schedule spec must be load-bearing like K and τ.
func jobKeyWithCapacity(t *testing.T, rs core.RequestSet, p core.Params) string {
	t.Helper()
	sched, err := capacity.ParseSchedule("step(to=50%,at=2)", p.K)
	if err != nil {
		t.Fatal(err)
	}
	p.Capacity = sched
	return JobKey(rs, "S(LRU)", p, 1)
}

// TestJobKeyHashesResolvedSchedule pins that the key covers the
// resolved K(t) (Schedule.Canonical), not the spec string: equivalent
// spellings share a cache entry, and a trace schedule's key follows
// the file contents — editing the file re-keys the job instead of
// silently serving stale cached results.
func TestJobKeyHashesResolvedSchedule(t *testing.T) {
	rs := core.RequestSet{{1, 2, 3, 1}, {9, 8, 9}}
	key := func(spec string) string {
		t.Helper()
		sched, err := capacity.ParseSchedule(spec, 16)
		if err != nil {
			t.Fatal(err)
		}
		return JobKey(rs, "S(LRU)", core.Params{K: 16, Tau: 2, Capacity: sched}, 1)
	}
	if key("step(to=8,at=2)") != key("step(to=50%,at=2)") {
		t.Fatal("equivalent schedule specs produced different keys")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "sched.txt")
	if err := os.WriteFile(path, []byte("0 100%\n5 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	k1 := key("trace(path=" + path + ")")
	if err := os.WriteFile(path, []byte("0 100%\n5 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if k2 := key("trace(path=" + path + ")"); k1 == k2 {
		t.Fatal("editing the trace file left the job key unchanged")
	}
}

func TestResultCacheEvictsLRUAtBudget(t *testing.T) {
	c := newResultCache(2)
	r := func(n int64) Result { return Result{TotalFaults: n} }
	c.put("a", r(1))
	c.put("b", r(2))
	if _, ok := c.get("a"); !ok { // refresh a: b is now least recent
		t.Fatal("a missing")
	}
	c.put("c", r(3)) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived past the budget")
	}
	if v, ok := c.get("a"); !ok || v.TotalFaults != 1 {
		t.Fatal("a lost or corrupted")
	}
	if v, ok := c.get("c"); !ok || v.TotalFaults != 3 {
		t.Fatal("c lost or corrupted")
	}
	hits, misses, entries := c.stats()
	if entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
	if hits != 3 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", hits, misses)
	}
	// Handle recycling: many churn cycles never grow past the budget.
	for i := 0; i < 100; i++ {
		c.put(string(rune('d'+i)), r(int64(i)))
	}
	if _, _, entries := c.stats(); entries != 2 {
		t.Fatalf("entries after churn = %d, want 2", entries)
	}
	if c.next > 3 {
		t.Fatalf("handles not recycled: next = %d", c.next)
	}
}

func TestResultCacheDuplicatePutKeepsFirst(t *testing.T) {
	c := newResultCache(4)
	c.put("k", Result{TotalFaults: 1})
	c.put("k", Result{TotalFaults: 99})
	if v, _ := c.get("k"); v.TotalFaults != 1 {
		t.Fatalf("duplicate put replaced the entry: %d", v.TotalFaults)
	}
	if _, _, entries := c.stats(); entries != 1 {
		t.Fatal("duplicate put grew the cache")
	}
}
