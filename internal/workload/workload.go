// Package workload generates synthetic multicore request sets. The
// paper's evaluation is purely analytic, so these generators play the
// role its motivating workloads describe informally: independent
// processes with private working sets, looping scans, phase-changing
// programs, and mixes that share pages across cores. All generators are
// deterministic given the spec's seed.
package workload

import (
	"fmt"
	"math/rand"

	"mcpaging/internal/core"
	"mcpaging/internal/sim"
)

// Kind selects a generator family.
type Kind string

// Generator families.
const (
	// Uniform draws each request uniformly from the core's page range.
	Uniform Kind = "uniform"
	// Zipf draws from a Zipf distribution over the core's page range —
	// heavy-tailed popularity, the classic cache-friendly skew.
	Zipf Kind = "zipf"
	// Loop cycles sequentially through the core's page range — the
	// LRU-adversarial scan pattern.
	Loop Kind = "loop"
	// Phased partitions the sequence into phases, each confined to a
	// small working set drawn from the core's range; working sets
	// change abruptly at phase boundaries.
	Phased Kind = "phased"
	// Markov walks a ring over the core's page range: with high
	// probability the next request is a neighbour of the current page,
	// otherwise it jumps uniformly (an access-graph-style workload in
	// the spirit of Fiat–Karlin's multi-pointer model).
	Markov Kind = "markov"
)

// Kinds lists all generator families in a stable order.
func Kinds() []Kind { return []Kind{Uniform, Zipf, Loop, Phased, Markov} }

// Spec describes one request-set generation. The JSON names are the
// wire format of the mcservd job API's "workload" trace input.
type Spec struct {
	// Cores is p, the number of sequences.
	Cores int `json:"cores"`
	// Length is the per-core sequence length.
	Length int `json:"length"`
	// Pages is the number of distinct private pages per core.
	Pages int `json:"pages"`
	// Kind selects the generator family.
	Kind Kind `json:"kind"`
	// ZipfS and ZipfV parameterise the Zipf distribution: page rank k
	// is drawn with probability ∝ (v+k)^−s. Zero selects the default
	// s=1.2, v=1; otherwise s must lie in [ZipfMinS, ZipfMaxS] = [1.0001,
	// 32] and v in [ZipfMinV, ZipfMaxV] = [1, 65536], and Validate
	// rejects anything else (NaN and ±Inf included). Inside that box
	// every draw is < Pages. The ranks are exactly math/rand's Zipf
	// stream from the spec's seed; the sampler only replaces its per-draw
	// exp and log with a table lookup.
	ZipfS float64 `json:"zipf_s,omitempty"`
	ZipfV float64 `json:"zipf_v,omitempty"`
	// Phases (Phased only) is the number of phases; zero defaults to 8.
	Phases int `json:"phases,omitempty"`
	// WorkingSet (Phased only) is the pages per phase; zero defaults to
	// max(2, Pages/4).
	WorkingSet int `json:"working_set,omitempty"`
	// JumpProb (Markov only) is the probability of a uniform jump
	// instead of a neighbour step; zero defaults to 0.05.
	JumpProb float64 `json:"jump_prob,omitempty"`
	// SharedFrac, if positive, replaces that fraction of requests (in
	// expectation) with requests to a pool of SharedPages pages common
	// to all cores, producing a non-disjoint request set.
	SharedFrac float64 `json:"shared_frac,omitempty"`
	// SharedPages is the size of the shared pool; zero defaults to
	// Pages when SharedFrac > 0.
	SharedPages int `json:"shared_pages,omitempty"`
	// Seed drives all randomness.
	Seed int64 `json:"seed"`
}

// sharedBase places shared pages in a namespace no private page uses.
const sharedBase = 1 << 24

// privateStride spaces per-core private namespaces.
const privateStride = 1 << 16

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Cores < 1 {
		return fmt.Errorf("workload: cores = %d, want >= 1", s.Cores)
	}
	if s.Length < 0 {
		return fmt.Errorf("workload: negative length %d", s.Length)
	}
	if s.Pages < 1 {
		return fmt.Errorf("workload: pages = %d, want >= 1", s.Pages)
	}
	if s.Pages >= privateStride {
		return fmt.Errorf("workload: pages = %d exceeds per-core namespace", s.Pages)
	}
	if s.SharedFrac < 0 || s.SharedFrac > 1 {
		return fmt.Errorf("workload: shared fraction %v outside [0,1]", s.SharedFrac)
	}
	if s.Kind == Zipf {
		zs, zv := s.zipfParams()
		if !(zs >= ZipfMinS && zs <= ZipfMaxS) {
			return fmt.Errorf("workload: zipf_s = %v outside [%v, %v]", s.ZipfS, ZipfMinS, ZipfMaxS)
		}
		if !(zv >= ZipfMinV && zv <= ZipfMaxV) {
			return fmt.Errorf("workload: zipf_v = %v outside [%v, %v]", s.ZipfV, ZipfMinV, ZipfMaxV)
		}
	}
	switch s.Kind {
	case Uniform, Zipf, Loop, Phased, Markov:
	default:
		return fmt.Errorf("workload: unknown kind %q", s.Kind)
	}
	return nil
}

// Generate builds the request set for the spec.
func Generate(s Spec) (core.RequestSet, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	var zipf *zipfSampler
	if s.Kind == Zipf {
		// One sampler for every core: its table depends only on the
		// parameters, and it consumes rng exactly as rand.Zipf would.
		zs, zv := s.zipfParams()
		zipf = newZipfSampler(zs, zv, uint64(s.Pages-1), s.Cores*s.Length)
	}
	rs := make(core.RequestSet, s.Cores)
	sharedPages := s.SharedPages
	if sharedPages == 0 {
		sharedPages = s.Pages
	}
	for j := 0; j < s.Cores; j++ {
		base := core.PageID(j * privateStride)
		local := s.generateCore(rng, zipf)
		if s.SharedFrac > 0 {
			for i := range local {
				if rng.Float64() < s.SharedFrac {
					local[i] = core.PageID(sharedBase + rng.Intn(sharedPages))
					continue
				}
				local[i] += base
			}
		} else {
			for i := range local {
				local[i] += base
			}
		}
		rs[j] = local
	}
	return rs, nil
}

// zipfParams resolves the zero defaults of ZipfS and ZipfV.
func (s Spec) zipfParams() (zs, zv float64) {
	zs, zv = s.ZipfS, s.ZipfV
	if zs == 0 {
		zs = 1.2
	}
	if zv == 0 {
		zv = 1
	}
	return zs, zv
}

// generateCore produces one core's sequence over pages 0..Pages-1; zipf
// is the shared sampler of a Zipf spec.
func (s Spec) generateCore(rng *rand.Rand, zipf *zipfSampler) core.Sequence {
	seq := make(core.Sequence, s.Length)
	switch s.Kind {
	case Uniform:
		for i := range seq {
			seq[i] = core.PageID(rng.Intn(s.Pages))
		}
	case Zipf:
		perm := rng.Perm(s.Pages) // decouple popularity rank from page ID
		for i := range seq {
			seq[i] = core.PageID(perm[zipf.next(rng)])
		}
	case Loop:
		off := rng.Intn(s.Pages)
		for i := range seq {
			seq[i] = core.PageID((off + i) % s.Pages)
		}
	case Phased:
		phases := s.Phases
		if phases <= 0 {
			phases = 8
		}
		ws := s.WorkingSet
		if ws <= 0 {
			ws = s.Pages / 4
		}
		if ws < 2 {
			ws = 2
		}
		if ws > s.Pages {
			ws = s.Pages
		}
		perPhase := (s.Length + phases - 1) / phases
		for i := 0; i < s.Length; {
			set := rng.Perm(s.Pages)[:ws]
			for k := 0; k < perPhase && i < s.Length; k++ {
				seq[i] = core.PageID(set[rng.Intn(ws)])
				i++
			}
		}
	case Markov:
		jump := s.JumpProb
		if jump <= 0 {
			jump = 0.05
		}
		cur := rng.Intn(s.Pages)
		for i := range seq {
			seq[i] = core.PageID(cur)
			if rng.Float64() < jump {
				cur = rng.Intn(s.Pages)
			} else if rng.Intn(2) == 0 {
				cur = (cur + 1) % s.Pages
			} else {
				cur = (cur - 1 + s.Pages) % s.Pages
			}
		}
	}
	return seq
}

// mixStream is Mix's sim.DeriveSeed stream ID. Families use stream 0
// (family.go); keeping Mix on its own stream decorrelates the two even
// for equal roots and indices.
const mixStream = 1

// Mix generates one request set per kind with otherwise identical
// parameters — the standard sweep used by the E13 policy matrix. Each
// kind's seed is split off the base seed through the sim.DeriveSeed
// splitmix64 chain: the old `base.Seed + i*1000003` stride left kind 0
// on base.Seed itself, so Mix's first entry replayed Generate(base)'s
// exact stream instead of an independent one.
func Mix(base Spec) (map[Kind]core.RequestSet, error) {
	out := make(map[Kind]core.RequestSet, len(Kinds()))
	for i, k := range Kinds() {
		s := base
		s.Kind = k
		s.Seed = sim.DeriveSeed(base.Seed, mixStream, int64(i))
		rs, err := Generate(s)
		if err != nil {
			return nil, err
		}
		out[k] = rs
	}
	return out, nil
}

// Compose builds a heterogeneous request set: one spec per core (each
// spec's Cores field is ignored), with every core placed in its own
// private page namespace. It is the generator behind mixed workloads
// like "one scanning core plus three zipf cores".
func Compose(specs []Spec) (core.RequestSet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("workload: Compose needs at least one spec")
	}
	rs := make(core.RequestSet, len(specs))
	for j, s := range specs {
		s.Cores = 1
		if s.SharedFrac != 0 {
			return nil, fmt.Errorf("workload: Compose does not support shared pools (core %d)", j)
		}
		one, err := Generate(s)
		if err != nil {
			return nil, fmt.Errorf("workload: core %d: %w", j, err)
		}
		seq := one[0]
		base := core.PageID(j * privateStride)
		for i := range seq {
			// Generate already placed core 0 in the base namespace;
			// shift into this core's.
			seq[i] += base
		}
		rs[j] = seq
	}
	return rs, nil
}
