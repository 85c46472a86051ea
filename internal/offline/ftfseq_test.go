package offline_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mcpaging/internal/core"
	"mcpaging/internal/mattson"
	"mcpaging/internal/offline"
)

// TestSeqMatchesUnpinnedBrute: the sequential-transition DP equals
// exhaustive search under logical-order semantics.
func TestSeqMatchesUnpinnedBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tinyInstance(rng)
		sol, err := offline.SolveFTFSeq(in, offline.Options{})
		if err != nil {
			return false
		}
		brute, err := offline.BruteFTFUnpinned(in)
		if err != nil {
			return false
		}
		return sol.Faults == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestSeqNeverAbovePinned: lifting the pinning rule can only help.
func TestSeqNeverAbovePinned(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tinyInstance(rng)
		seq, err := offline.SolveFTFSeq(in, offline.Options{})
		if err != nil {
			return false
		}
		pinned, err := offline.SolveFTF(in, offline.Options{})
		if err != nil {
			return false
		}
		return seq.Faults <= pinned.Faults
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPinnedRuleGap pins the instance documenting that the paper's
// Algorithm 1 successor rule (C′ ⊇ R(x)) is strictly more restrictive
// than the model's logical-order semantics: evicting core 0's page right
// after its same-step hit saves a fault.
func TestPinnedRuleGap(t *testing.T) {
	in := core.Instance{
		R: core.RequestSet{{2, 2}, {100, 101, 101, 100}},
		P: core.Params{K: 2, Tau: 0},
	}
	pinned, err := offline.SolveFTF(in, offline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := offline.SolveFTFSeq(in, offline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Faults != 4 || seq.Faults != 3 {
		t.Fatalf("pinned=%d seq=%d; want the documented 4 vs 3 gap", pinned.Faults, seq.Faults)
	}
	// Even forcing does not let the pinned rule recover the schedule.
	forcing, err := offline.SolveFTF(in, offline.Options{AllowForcing: true})
	if err != nil {
		t.Fatal(err)
	}
	if forcing.Faults != 4 {
		t.Fatalf("forcing pinned = %d, want 4", forcing.Faults)
	}
}

// TestSeqSequentialBelady: at p=1 the two semantics coincide and both
// equal Belady's algorithm.
func TestSeqSequentialBelady(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(6)
		seq := make(core.Sequence, n)
		for i := range seq {
			seq[i] = core.PageID(rng.Intn(4))
		}
		k := 1 + rng.Intn(3)
		tau := rng.Intn(3)
		in := core.Instance{R: core.RequestSet{seq}, P: core.Params{K: k, Tau: tau}}
		sol, err := offline.SolveFTFSeq(in, offline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := mattson.OPTCurve(seq, k)[k]; sol.Faults != want {
			t.Fatalf("trial %d: seq DP %d != Belady %d", trial, sol.Faults, want)
		}
	}
}

// TestSeqGapFrequency reports how often the two semantics differ on
// random tiny instances — the gap exists but is rare, supporting the
// view that the paper's rule is a benign simplification for most
// instances while not exactly optimal.
func TestSeqGapFrequency(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	diff := 0
	const trials = 150
	for trial := 0; trial < trials; trial++ {
		in := tinyInstance(rng)
		pinned, err := offline.SolveFTF(in, offline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := offline.SolveFTFSeq(in, offline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if seq.Faults > pinned.Faults {
			t.Fatalf("trial %d: seq %d > pinned %d", trial, seq.Faults, pinned.Faults)
		}
		if seq.Faults < pinned.Faults {
			diff++
		}
	}
	t.Logf("gap on %d/%d random tiny instances", diff, trials)
}

// TestTheorem4ForcingNeutralExact re-verifies Theorem 4 under the exact
// logical-order semantics: voluntary evictions never lower the FTF
// optimum there either.
func TestTheorem4ForcingNeutralExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		in := tinyInstance(rng)
		honest, err := offline.SolveFTFSeq(in, offline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		forcing, err := offline.SolveFTFSeq(in, offline.Options{AllowForcing: true})
		if err != nil {
			t.Fatal(err)
		}
		if forcing.Faults > honest.Faults {
			t.Fatalf("trial %d: forcing made things worse?! %d vs %d", trial, forcing.Faults, honest.Faults)
		}
		if forcing.Faults < honest.Faults {
			t.Fatalf("trial %d: forcing beat honest under exact semantics: %d vs %d (R=%v)",
				trial, forcing.Faults, honest.Faults, in.R)
		}
	}
}
