package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mcpaging/internal/core"
)

func base(kind Kind) Spec {
	return Spec{Cores: 3, Length: 200, Pages: 16, Kind: kind, Seed: 42}
}

func TestGenerateAllKinds(t *testing.T) {
	for _, k := range Kinds() {
		t.Run(string(k), func(t *testing.T) {
			rs, err := Generate(base(k))
			if err != nil {
				t.Fatal(err)
			}
			if rs.NumCores() != 3 {
				t.Fatalf("cores = %d", rs.NumCores())
			}
			for j, s := range rs {
				if len(s) != 200 {
					t.Fatalf("core %d length = %d", j, len(s))
				}
			}
			if !rs.Disjoint() {
				t.Fatal("private workloads must be disjoint")
			}
			if err := rs.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, k := range Kinds() {
		a, err := Generate(base(k))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(base(k))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different sets", k)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	s1, s2 := base(Uniform), base(Uniform)
	s2.Seed = 43
	a, _ := Generate(s1)
	b, _ := Generate(s2)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical sets")
	}
}

func TestPageRangeRespected(t *testing.T) {
	f := func(seed int64, kindIdx uint8) bool {
		spec := base(Kinds()[int(kindIdx)%len(Kinds())])
		spec.Seed = seed
		spec.Pages = 7
		rs, err := Generate(spec)
		if err != nil {
			return false
		}
		for j, s := range rs {
			lo := core.PageID(j * privateStride)
			for _, pg := range s {
				if pg < lo || pg >= lo+7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedPool(t *testing.T) {
	spec := base(Uniform)
	spec.SharedFrac = 0.5
	spec.SharedPages = 4
	rs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Disjoint() {
		t.Fatal("shared workload should not be disjoint")
	}
	shared := 0
	for _, s := range rs {
		for _, pg := range s {
			if pg >= sharedBase {
				if pg >= sharedBase+4 {
					t.Fatalf("shared page %d outside pool", pg)
				}
				shared++
			}
		}
	}
	total := rs.TotalLen()
	if shared < total/4 || shared > 3*total/4 {
		t.Fatalf("shared fraction %d/%d far from 0.5", shared, total)
	}
}

func TestLoopIsCyclic(t *testing.T) {
	spec := base(Loop)
	rs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := rs[0]
	for i := spec.Pages; i < len(s); i++ {
		if s[i] != s[i-spec.Pages] {
			t.Fatalf("loop not cyclic at %d", i)
		}
	}
}

func TestZipfIsSkewed(t *testing.T) {
	spec := base(Zipf)
	spec.Length = 5000
	spec.Pages = 64
	rs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[core.PageID]int)
	for _, pg := range rs[0] {
		counts[pg]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// With s=1.2 the most popular page takes far more than the uniform
	// share of 5000/64 ≈ 78.
	if max < 300 {
		t.Fatalf("zipf max frequency %d suspiciously uniform", max)
	}
}

func TestPhasedHasLocality(t *testing.T) {
	spec := base(Phased)
	spec.Length = 800
	spec.Pages = 64
	spec.Phases = 8
	spec.WorkingSet = 4
	rs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Each 100-request phase touches at most 4 distinct pages.
	s := rs[0]
	for ph := 0; ph < 8; ph++ {
		distinct := make(map[core.PageID]bool)
		for i := ph * 100; i < (ph+1)*100; i++ {
			distinct[s[i]] = true
		}
		if len(distinct) > 4 {
			t.Fatalf("phase %d touches %d pages, want <= 4", ph, len(distinct))
		}
	}
}

func TestMarkovIsLocal(t *testing.T) {
	spec := base(Markov)
	spec.Length = 2000
	spec.Pages = 32
	spec.JumpProb = 0.01
	rs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := rs[0]
	neighbour := 0
	for i := 1; i < len(s); i++ {
		d := int(s[i]) - int(s[i-1])
		if d < 0 {
			d = -d
		}
		if d <= 1 || d == 31 {
			neighbour++
		}
	}
	if float64(neighbour)/float64(len(s)-1) < 0.9 {
		t.Fatalf("markov walk not local: %d/%d neighbour steps", neighbour, len(s)-1)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Cores: 0, Length: 1, Pages: 1, Kind: Uniform},
		{Cores: 1, Length: -1, Pages: 1, Kind: Uniform},
		{Cores: 1, Length: 1, Pages: 0, Kind: Uniform},
		{Cores: 1, Length: 1, Pages: 1, Kind: "nope"},
		{Cores: 1, Length: 1, Pages: 1, Kind: Uniform, SharedFrac: 1.5},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestZipfParamValidation pins the Zipf parameter box: non-finite values
// and values outside it fail with an error naming the field, instead of
// looping forever, panicking, or being replaced by the default.
func TestZipfParamValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		s, v  float64
		field string
	}{
		{nan, 0, "zipf_s"}, {inf, 0, "zipf_s"}, {-inf, 0, "zipf_s"},
		{0, nan, "zipf_v"}, {0, inf, "zipf_v"},
		{1, 0, "zipf_s"}, {0.5, 0, "zipf_s"}, {-2, 0, "zipf_s"}, {1.00001, 0, "zipf_s"}, {100, 1e6, "zipf_s"},
		{0, 0.5, "zipf_v"}, {0, -1, "zipf_v"}, {0, 1e300, "zipf_v"}, {0, ZipfMaxV * 2, "zipf_v"},
	}
	for _, c := range bad {
		_, err := Generate(Spec{Cores: 1, Length: 10, Pages: 8, Kind: Zipf, ZipfS: c.s, ZipfV: c.v})
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("s=%v v=%v: error %v, want one naming %s", c.s, c.v, err, c.field)
		}
	}
	for _, sv := range [][2]float64{{0, 0}, {ZipfMinS, ZipfMinV}, {ZipfMaxS, ZipfMaxV}, {1.2, 3.5}} {
		if _, err := Generate(Spec{Cores: 1, Length: 10, Pages: 8, Kind: Zipf, ZipfS: sv[0], ZipfV: sv[1]}); err != nil {
			t.Errorf("s=%v v=%v: %v", sv[0], sv[1], err)
		}
	}
	// The box applies to Zipf specs only; other kinds ignore the fields.
	if _, err := Generate(Spec{Cores: 1, Length: 10, Pages: 8, Kind: Uniform, ZipfS: nan}); err != nil {
		t.Errorf("uniform spec with an unused zipf_s: %v", err)
	}
	for _, spec := range []string{"zipf(s=NaN)", "zipf(s=+Inf)", "zipf(v=NaN)", "zipf(s=1)", "mixed(s=Inf)"} {
		if _, err := ParseFamily(spec); err == nil {
			t.Errorf("ParseFamily(%q) unexpectedly succeeded", spec)
		}
	}
}

func TestMixCoversAllKinds(t *testing.T) {
	m, err := Mix(base(Uniform))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(Kinds()) {
		t.Fatalf("mix has %d kinds, want %d", len(m), len(Kinds()))
	}
	for k, rs := range m {
		if rs.TotalLen() == 0 {
			t.Errorf("%s: empty", k)
		}
	}
}

// TestMixDecorrelatedFromGenerate pins the seed-derivation fix in Mix.
// The old per-kind stride `base.Seed + i*1000003` left kind 0 (Uniform)
// on base.Seed itself, so Mix(base)[Uniform] was byte-identical to
// Generate(base) — the "independent" sweep cell replayed the baseline's
// exact request stream. Every Mix entry must now be decorrelated from
// the plain Generate of the same spec, while staying deterministic.
func TestMixDecorrelatedFromGenerate(t *testing.T) {
	spec := base(Uniform)
	m, err := Mix(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kinds() {
		s := spec
		s.Kind = k
		plain, err := Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(m[k], plain) {
			t.Errorf("%s: Mix entry replays Generate's stream — per-kind seed not decorrelated from the base seed", k)
		}
	}

	again, err := Mix(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, again) {
		t.Fatal("Mix is not deterministic for a fixed base seed")
	}
}

func TestCompose(t *testing.T) {
	rs, err := Compose([]Spec{
		{Length: 100, Pages: 8, Kind: Loop, Seed: 1},
		{Length: 50, Pages: 4, Kind: Zipf, Seed: 2},
		{Length: 80, Pages: 16, Kind: Phased, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumCores() != 3 {
		t.Fatalf("cores = %d", rs.NumCores())
	}
	if len(rs[0]) != 100 || len(rs[1]) != 50 || len(rs[2]) != 80 {
		t.Fatalf("lengths wrong: %d %d %d", len(rs[0]), len(rs[1]), len(rs[2]))
	}
	if !rs.Disjoint() {
		t.Fatal("composed set must be disjoint")
	}
	if err := rs.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestComposeErrors(t *testing.T) {
	if _, err := Compose(nil); err == nil {
		t.Fatal("empty compose should fail")
	}
	if _, err := Compose([]Spec{{Length: 10, Pages: 4, Kind: Uniform, SharedFrac: 0.5}}); err == nil {
		t.Fatal("shared pool should be rejected")
	}
	if _, err := Compose([]Spec{{Length: 10, Pages: 0, Kind: Uniform}}); err == nil {
		t.Fatal("invalid spec should propagate")
	}
}
