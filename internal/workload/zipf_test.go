package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// zipfGrid spans the parameter box: one page and two, s near 1 and at
// its maximum, v above 1 up to its maximum, and the largest page count
// a spec allows.
var zipfGrid = struct {
	pages []uint64
	sv    [][2]float64
}{
	pages: []uint64{1, 2, 3, 17, 1024, 65535},
	sv: [][2]float64{
		{ZipfMinS, 1}, {1.001, 1}, {1.01, 3}, {1.1, 3}, {1.2, 1}, {1.2, 100.5},
		{2.5, 7}, {8, 1}, {ZipfMaxS, 1}, {ZipfMaxS, ZipfMaxV}, {1.1, ZipfMaxV},
	},
}

// compareZipf draws n variates from rand.Zipf and from a sampler built
// for draws table-sizing draws, both on the same seed, and fails on the
// first difference, or when the two consumed different amounts of the
// stream.
func compareZipf(t testing.TB, s, v float64, imax uint64, seed int64, n, draws int) {
	t.Helper()
	ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	want := rand.NewZipf(ra, s, v, imax)
	got := newZipfSampler(s, v, imax, draws)
	for i := 0; i < n; i++ {
		if a, b := want.Uint64(), got.next(rb); a != b {
			t.Fatalf("s=%v v=%v imax=%d seed=%d: draw %d = %d, rand.Zipf gives %d", s, v, imax, seed, i, b, a)
		}
	}
	if a, b := ra.Int63(), rb.Int63(); a != b {
		t.Fatalf("s=%v v=%v imax=%d seed=%d: streams diverged after %d draws", s, v, imax, seed, n)
	}
}

// TestZipfSamplerMatchesStdlib is the sampler's differential test: over
// the parameter grid, 10^8 draws in all (10^6 under -short), the table
// path returns exactly rand.Zipf's values and consumes exactly its
// Float64s.
func TestZipfSamplerMatchesStdlib(t *testing.T) {
	total := 100_000_000
	if testing.Short() {
		total = 1_000_000
	}
	per := total / (len(zipfGrid.pages) * len(zipfGrid.sv))
	for _, pages := range zipfGrid.pages {
		for i, sv := range zipfGrid.sv {
			s, v, imax := sv[0], sv[1], pages-1
			seed := int64(pages)*100 + int64(i)
			t.Run(fmt.Sprintf("pages=%d/s=%v/v=%v", pages, s, v), func(t *testing.T) {
				t.Parallel()
				compareZipf(t, s, v, imax, seed, per, math.MaxInt)
			})
		}
	}
}

// TestZipfSamplerWithoutTable covers the small-input path, where every
// draw runs the stdlib iteration.
func TestZipfSamplerWithoutTable(t *testing.T) {
	if z := newZipfSampler(1.2, 1, 1023, 100); z.guide != nil {
		t.Fatal("table built for 100 draws over 1024 pages")
	}
	for i, sv := range zipfGrid.sv {
		compareZipf(t, sv[0], sv[1], 1023, int64(i), 20000, 0)
	}
}

// TestZipfSamplerConstants checks the sampler's copies of NewZipf's
// constants bit for bit against the stdlib's own fields.
func TestZipfSamplerConstants(t *testing.T) {
	for _, pages := range zipfGrid.pages {
		for _, sv := range zipfGrid.sv {
			want := reflect.ValueOf(rand.NewZipf(rand.New(rand.NewSource(1)), sv[0], sv[1], pages-1)).Elem()
			got := newZipfSampler(sv[0], sv[1], pages-1, 0)
			for name, g := range map[string]float64{
				"imax": got.imax, "v": got.v, "q": got.q, "s": got.s,
				"oneminusQ": got.oneminusQ, "oneminusQinv": got.oneminusQinv,
				"hxm": got.hxm, "hx0minusHxm": got.hx0minusHxm,
			} {
				if w := want.FieldByName(name).Float(); math.Float64bits(w) != math.Float64bits(g) {
					t.Errorf("s=%v v=%v pages=%d: %s = %v, rand.Zipf has %v", sv[0], sv[1], pages, name, g, w)
				}
			}
		}
	}
}

// fallbackShare is the probability that a draw lands on a segment that
// runs the stdlib iteration.
func fallbackShare(z *zipfSampler) float64 {
	share, prev := 0.0, 0.0
	for i, e := range z.edges {
		hi := math.Min(math.Max(e, 0), 1)
		if z.codes[i] == zipfFallback {
			share += hi - prev
		}
		prev = hi
	}
	return share
}

// TestZipfTableResolvesDraws checks that the table is built across the
// parameter box and that almost every draw resolves by lookup.
func TestZipfTableResolvesDraws(t *testing.T) {
	for _, pages := range zipfGrid.pages {
		for _, sv := range zipfGrid.sv {
			z := newZipfSampler(sv[0], sv[1], pages-1, math.MaxInt)
			if z.guide == nil {
				t.Errorf("s=%v v=%v pages=%d: no table", sv[0], sv[1], pages)
				continue
			}
			if f := fallbackShare(z); f > 1e-3 {
				t.Errorf("s=%v v=%v pages=%d: %.2g of draws fall back", sv[0], sv[1], pages, f)
			}
		}
	}
}

// FuzzZipfDifferential compares the sampler with rand.Zipf at arbitrary
// points of the parameter box.
func FuzzZipfDifferential(f *testing.F) {
	f.Add(1.2, 1.0, uint16(1024), int64(1))
	f.Add(1.1, 3.0, uint16(255), int64(2))
	f.Add(ZipfMinS, ZipfMaxV, uint16(65534), int64(3))
	f.Add(ZipfMaxS, 1.0, uint16(1), int64(4))
	f.Fuzz(func(t *testing.T, s, v float64, pages uint16, seed int64) {
		if !(s >= ZipfMinS && s <= ZipfMaxS && v >= ZipfMinV && v <= ZipfMaxV) || pages == 0 {
			t.Skip()
		}
		compareZipf(t, s, v, uint64(pages-1), seed, 4096, math.MaxInt)
	})
}

// BenchmarkGenerate times the served job's input, a 4×64K Zipf request
// set over 1024 pages per core, per generated request.
func BenchmarkGenerate(b *testing.B) {
	s := Spec{Cores: 4, Length: 65536, Pages: 1024, Kind: Zipf}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i)
		if _, err := Generate(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Cores*s.Length), "ns/req")
}
