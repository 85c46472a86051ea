package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"

	"mcpaging/internal/core"
)

// digest hashes a request set: per core, its length and then every page
// ID, all as little-endian uint32 words.
func digest(rs core.RequestSet) string {
	h := sha256.New()
	var w [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(w[:], v)
		h.Write(w[:])
	}
	put(uint32(len(rs)))
	for _, seq := range rs {
		put(uint32(len(seq)))
		for _, p := range seq {
			put(uint32(p))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCases covers every Kind, shared pools, the served 4×64K Zipf job,
// Zipf at the page-count extremes and away from the default exponent.
var goldenCases = []struct {
	name string
	gen  func() (core.RequestSet, error)
}{
	{"uniform", spec(Spec{Cores: 3, Length: 2000, Pages: 64, Kind: Uniform, Seed: 42})},
	{"zipf", spec(Spec{Cores: 3, Length: 2000, Pages: 64, Kind: Zipf, Seed: 42})},
	{"loop", spec(Spec{Cores: 3, Length: 2000, Pages: 64, Kind: Loop, Seed: 42})},
	{"phased", spec(Spec{Cores: 3, Length: 2000, Pages: 64, Kind: Phased, Seed: 42})},
	{"markov", spec(Spec{Cores: 3, Length: 2000, Pages: 64, Kind: Markov, Seed: 42})},
	{"zipf-served-4x64K", spec(Spec{Cores: 4, Length: 65536, Pages: 1024, Kind: Zipf, Seed: 7})},
	{"zipf-pages-65535", spec(Spec{Cores: 2, Length: 150000, Pages: 65535, Kind: Zipf, Seed: 9})},
	{"zipf-pages-1", spec(Spec{Cores: 2, Length: 5000, Pages: 1, Kind: Zipf, Seed: 3})},
	{"zipf-pages-2", spec(Spec{Cores: 2, Length: 5000, Pages: 2, Kind: Zipf, Seed: 3})},
	{"zipf-s2.5-v7", spec(Spec{Cores: 2, Length: 40000, Pages: 300, Kind: Zipf, ZipfS: 2.5, ZipfV: 7, Seed: 11})},
	{"zipf-shared", spec(Spec{Cores: 3, Length: 20000, Pages: 128, Kind: Zipf, SharedFrac: 0.3, SharedPages: 50, Seed: 5})},
	{"uniform-shared", spec(Spec{Cores: 3, Length: 2000, Pages: 64, Kind: Uniform, SharedFrac: 0.2, Seed: 5})},
	{"mix", func() (core.RequestSet, error) {
		m, err := Mix(Spec{Cores: 2, Length: 3000, Pages: 200, Seed: 13})
		if err != nil {
			return nil, err
		}
		kinds := make([]string, 0, len(m))
		for k := range m {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		var all core.RequestSet
		for _, k := range kinds {
			all = append(all, m[Kind(k)]...)
		}
		return all, nil
	}},
	{"compose", func() (core.RequestSet, error) {
		return Compose([]Spec{
			{Length: 3000, Pages: 100, Kind: Loop, Seed: 1},
			{Length: 30000, Pages: 500, Kind: Zipf, ZipfS: 1.5, Seed: 2},
			{Length: 3000, Pages: 100, Kind: Markov, Seed: 3},
		})
	}},
	{"family-zipf-s1.1-v3", func() (core.RequestSet, error) {
		f, err := ParseFamily("zipf(cores=2,length=20000,pages=256,s=1.1,v=3)")
		if err != nil {
			return nil, err
		}
		return f.Sample(17)
	}},
}

func spec(s Spec) func() (core.RequestSet, error) {
	return func() (core.RequestSet, error) { return Generate(s) }
}

// goldenDigests were computed by the math/rand.Zipf generator that the
// table-driven sampler replaced; any change to a generated page fails
// this test.
var goldenDigests = map[string]string{
	"uniform":             "9c2d6f5310fa81de0d552f24466ad89de890fbe80eef21ce3361e0d19c26c8d6",
	"zipf":                "31021c463f169b3938fe47326c601bc223e8505c65d8620823918e688eaa93b8",
	"loop":                "cd63aa76d58f36eb94e82533f52995cbd3c72cdd68d3fa3d5c35c30dd02be4af",
	"phased":              "6b54adcfd821986f9898c03812cdc31aa6d5ef5e9df0ed76629596a0a7d5f2ae",
	"markov":              "71b8e38b9e02b7cc5b13fc0ea45ec988514398b29f6cf395f320f335a4e2f2a6",
	"zipf-served-4x64K":   "db1be2cd25d3bf83f75a32aeab0f8618e49cd872581bdda4ec6abc2344b37908",
	"zipf-pages-65535":    "ddcb583824814c19f899e04a4bcad49b86ddaf6e36695a399965055023f67c5b",
	"zipf-pages-1":        "4cfa75ff60511f272685dae279e3fc75f2d4c2e8acd45eaba979089bdd0cb64c",
	"zipf-pages-2":        "503a5bcf36f24acd648650928bfea627462c1f85490373d231fabb6512f109da",
	"zipf-s2.5-v7":        "bf2b6811157e56b2371d5b45a696e1d55153f442e767fb05667d82ac58e5c3e9",
	"zipf-shared":         "d773e79a7bcf09926e44bff0b111cc55a0b9d4c07e84a9fec8920d45e82eb5ac",
	"uniform-shared":      "1e0eda8d0d6bc26247beb36d1af9e4196378e6c17909fa172d97edc377fa54be",
	"mix":                 "203c46a0a48f9e598d78efac5862e96e2c879f8076aeb78af2c9330d71f48b5e",
	"compose":             "447b01b6c966875a853ed3314855c49d41c2096023cf7a7ab72c52b355510cae",
	"family-zipf-s1.1-v3": "201daa9303dfadc9f7a1b4fbe0f780c97b0c83162101da973113b6485b8e9ab4",
}

// TestGenerateGolden pins the bytes Generate, Mix, Compose and the
// family registry produce, independently of the sampler's own
// differential tests.
func TestGenerateGolden(t *testing.T) {
	for _, c := range goldenCases {
		rs, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := digest(rs), goldenDigests[c.name]; got != want {
			t.Errorf("%s: digest %s, want %s", c.name, got, want)
		}
	}
}
