package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"mcpaging/internal/core"
)

func TestRoundTrip(t *testing.T) {
	rs := core.RequestSet{
		{1, 2, 3, 1, 2, 3},
		{},
		{100000, 0, 42},
	}
	var buf bytes.Buffer
	if err := Write(&buf, rs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, rs)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := make(core.RequestSet, 1+rng.Intn(5))
		for j := range rs {
			s := make(core.Sequence, rng.Intn(100))
			for i := range s {
				s[i] = core.PageID(rng.Intn(1 << 20))
			}
			rs[j] = s
		}
		var buf bytes.Buffer
		if err := Write(&buf, rs); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, rs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"bogus v1 cores 1",
		"mcpaging-trace v2 cores 1",
		"mcpaging-trace v1 cores x",
		"mcpaging-trace v1 cores 1 core 1 1 5",    // out-of-order core index
		"mcpaging-trace v1 cores 1 core 0 3 1 2",  // truncated payload
		"mcpaging-trace v1 cores 1 core 0 2 1 -5", // negative page
		"mcpaging-trace v1 cores 2 core 0 1 7",    // missing second core
		"mcpaging-trace v1 cores -3",              // bad core count
		"mcpaging-trace v1 cores 1 core 0 -1",     // bad length
		"mcpaging-trace v1 cores 1 kore 0 1 7",    // bad keyword
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d (%q) should fail", i, c)
		}
	}
}

func TestWrappedTokensAccepted(t *testing.T) {
	in := "mcpaging-trace\nv1\ncores\n1\ncore\n0\n4\n1\n2\n3\n4\n"
	rs, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := core.RequestSet{{1, 2, 3, 4}}
	if !reflect.DeepEqual(rs, want) {
		t.Fatalf("got %v, want %v", rs, want)
	}
}

// TestReadersAllocateByArrival feeds both readers a few bytes whose
// header claims 2^20 cores or a 2^28-request core. Without a request
// budget to refuse the claim, memory must still follow the bytes that
// arrive, not the lengths claimed.
func TestReadersAllocateByArrival(t *testing.T) {
	for _, in := range []string{
		"mcpaging-trace v1 cores 1048576 core 0 1 7",
		"mcpaging-trace v1 cores 1 core 0 268435456 7 8",
		"MCPT\x01\x80\x80\x40\x01\x0e",
		"MCPT\x01\x01\x80\x80\x80\x80\x01\x0e\x02",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadAuto(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%q: truncated trace accepted", in)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("%q: allocated %d bytes, want under 1 MiB", in, d)
		}
	}
}
