package mattson_test

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/mattson"
	"mcpaging/internal/policy"
	"mcpaging/internal/sim"
	"mcpaging/internal/workload"
)

func lru() cache.Factory { return func() cache.Policy { return cache.NewLRU() } }

func randSeq(rng *rand.Rand, n, w int) core.Sequence {
	s := make(core.Sequence, n)
	for i := range s {
		s[i] = core.PageID(rng.Intn(w))
	}
	return s
}

// simLRUMisses counts misses of a plain sequential LRU of size k via the
// multicore simulator with p=1.
func simLRUMisses(t *testing.T, seq core.Sequence, k int) int64 {
	t.Helper()
	in := core.Instance{R: core.RequestSet{seq}, P: core.Params{K: k, Tau: 0}}
	res, err := sim.Run(in, policy.NewShared(lru()), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Faults[0]
}

func TestLRUCurveMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		seq := randSeq(rng, 100+rng.Intn(100), 2+rng.Intn(10))
		kmax := 8
		curve := mattson.LRUCurve(seq, kmax)
		for k := 1; k <= kmax; k++ {
			if got := simLRUMisses(t, seq, k); got != curve[k] {
				t.Fatalf("trial %d k=%d: curve %d, simulation %d", trial, k, curve[k], got)
			}
		}
	}
}

func TestLRUCurveBasics(t *testing.T) {
	seq := core.Sequence{1, 2, 3, 1, 2, 3}
	curve := mattson.LRUCurve(seq, 4)
	if curve[0] != 6 {
		t.Errorf("curve[0] = %d, want 6", curve[0])
	}
	// K=3: only 3 cold misses. K=2: LRU thrashes, 6 misses.
	if curve[3] != 3 || curve[4] != 3 {
		t.Errorf("curve[3,4] = %d,%d, want 3,3", curve[3], curve[4])
	}
	if curve[2] != 6 {
		t.Errorf("curve[2] = %d, want 6 (cyclic thrash)", curve[2])
	}
}

func TestLRUCurveMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randSeq(rng, 150, 12)
		curve := mattson.LRUCurve(seq, 10)
		for k := 1; k < len(curve); k++ {
			if curve[k] > curve[k-1] {
				return false // LRU is a stack algorithm: no Belady anomaly
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLRUCurveEmpty(t *testing.T) {
	curve := mattson.LRUCurve(core.Sequence{}, 3)
	for k, v := range curve {
		if v != 0 {
			t.Fatalf("curve[%d] = %d for empty sequence", k, v)
		}
	}
}

// bruteOPT computes the true minimum misses for a single sequence and
// cache size k by exhaustive search over eviction choices.
func bruteOPT(seq core.Sequence, k int) int64 {
	var rec func(i int, cache []core.PageID) int64
	rec = func(i int, cc []core.PageID) int64 {
		if i == len(seq) {
			return 0
		}
		p := seq[i]
		for _, q := range cc {
			if q == p {
				return rec(i+1, cc)
			}
		}
		if len(cc) < k {
			nc := append(append([]core.PageID{}, cc...), p)
			return 1 + rec(i+1, nc)
		}
		best := int64(1 << 60)
		for vi := range cc {
			nc := append([]core.PageID{}, cc...)
			nc[vi] = p
			if v := 1 + rec(i+1, nc); v < best {
				best = v
			}
		}
		return best
	}
	return rec(0, nil)
}

func TestOPTMissesMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		seq := randSeq(rng, 8+rng.Intn(5), 4)
		k := 2 + rng.Intn(2)
		want := bruteOPT(seq, k)
		if got := mattson.OPTCurve(seq, k)[k]; got != want {
			t.Fatalf("trial %d seq=%v k=%d: OPTCurve=%d brute=%d", trial, seq, k, got, want)
		}
		if got := oracleOPTMisses(seq, k); got != want {
			t.Fatalf("trial %d seq=%v k=%d: oracle=%d brute=%d", trial, seq, k, got, want)
		}
	}
}

func TestOPTNeverWorseThanLRU(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randSeq(rng, 200, 10)
		for k := 1; k <= 6; k++ {
			if mattson.OPTCurve(seq, k)[k] > mattson.LRUCurve(seq, k)[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOPTCurveMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seq := randSeq(rng, 300, 15)
	curve := mattson.OPTCurve(seq, 12)
	for k := 1; k < len(curve); k++ {
		if curve[k] > curve[k-1] {
			t.Fatalf("OPT curve not monotone at k=%d: %v", k, curve)
		}
	}
	if curve[0] != 300 {
		t.Fatalf("curve[0] = %d, want n", curve[0])
	}
}

// exhaustivePartition enumerates every partition to verify the DP.
func exhaustivePartition(curves [][]int64, k int, active []bool) int64 {
	p := len(curves)
	at := func(j, s int) int64 {
		c := curves[j]
		if s >= len(c) {
			s = len(c) - 1
		}
		return c[s]
	}
	best := int64(1 << 60)
	var rec func(j, left int, sum int64)
	rec = func(j, left int, sum int64) {
		if j == p {
			if sum < best {
				best = sum
			}
			return
		}
		minS := 0
		if active[j] {
			minS = 1
		}
		for s := minS; s <= left; s++ {
			rec(j+1, left-s, sum+at(j, s))
		}
	}
	rec(0, k, 0)
	return best
}

func TestOptimalMatchesExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(3)
		k := p + rng.Intn(5)
		curves := make([][]int64, p)
		active := make([]bool, p)
		for j := range curves {
			c := make([]int64, k+1)
			c[0] = int64(50 + rng.Intn(50))
			for s := 1; s <= k; s++ {
				c[s] = c[s-1] - int64(rng.Intn(10))
				if c[s] < 0 {
					c[s] = 0
				}
			}
			curves[j] = c
			active[j] = true
		}
		part, err := mattson.Optimal(curves, k, active)
		if err != nil {
			return false
		}
		// Feasibility.
		total := 0
		for j, s := range part.Sizes {
			if active[j] && s < 1 {
				return false
			}
			total += s
		}
		if total > k {
			return false
		}
		// Optimality and self-consistency.
		var sum int64
		for j, s := range part.Sizes {
			sum += curves[j][s]
		}
		return sum == part.Faults && part.Faults == exhaustivePartition(curves, k, active)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalInfeasible(t *testing.T) {
	// 3 active cores but only 2 cells: no valid partition.
	curves := [][]int64{{5, 1}, {5, 1}, {5, 1}}
	if _, err := mattson.Optimal(curves, 2, []bool{true, true, true}); err == nil {
		t.Fatal("expected infeasibility error")
	}
	// A negative K is an error, not a panic.
	for _, k := range []int{-1, -2} {
		if _, err := mattson.OptimalLRU(core.RequestSet{{1, 2}}, k); err == nil {
			t.Fatalf("K=%d: expected an error", k)
		}
	}
}

// TestOptimalLRUPredictionExact: the DP's predicted fault count equals
// the simulated fault count of the corresponding static partition
// strategy on disjoint request sets, for any τ.
func TestOptimalLRUPredictionExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(2)
		rs := make(core.RequestSet, p)
		for j := range rs {
			rs[j] = core.Sequence{}
			for i := 0; i < 30+rng.Intn(40); i++ {
				rs[j] = append(rs[j], core.PageID(j*100+rng.Intn(6)))
			}
		}
		k := p + rng.Intn(6)
		part, err := mattson.OptimalLRU(rs, k)
		if err != nil {
			return false
		}
		in := core.Instance{R: rs, P: core.Params{K: k, Tau: rng.Intn(3)}}
		res, err := sim.Run(in, policy.NewStatic(part.Sizes, lru()), nil)
		if err != nil {
			return false
		}
		return res.TotalFaults() == part.Faults
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimalOPTBeatsOptimalLRU: per-part Belady can only improve on
// per-part LRU at the optimal partition of either.
func TestOptimalOPTBeatsOptimalLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rs := core.RequestSet{
		randSeq(rng, 200, 8),
		func() core.Sequence {
			s := randSeq(rng, 200, 8)
			for i := range s {
				s[i] += 100
			}
			return s
		}(),
	}
	lruPart, err := mattson.OptimalLRU(rs, 8)
	if err != nil {
		t.Fatal(err)
	}
	optPart, err := mattson.OptimalOPT(rs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if optPart.Faults > lruPart.Faults {
		t.Fatalf("sP_OPT(OPT) = %d > sP_OPT(LRU) = %d", optPart.Faults, lruPart.Faults)
	}
}

// oracleLRUCurve is an independent LRU oracle: a recency stack indexed by
// a map, with every position above the accessed page rewritten on each
// access.
func oracleLRUCurve(seq core.Sequence, kmax int) []int64 {
	curve := make([]int64, kmax+1)
	stack := make([]core.PageID, 0, kmax+1)
	histo := make([]int64, kmax+2) // histo[d] = accesses at distance d (1-based); [kmax+1] = deeper or cold
	pos := make(map[core.PageID]int)
	for _, p := range seq {
		if i, ok := pos[p]; ok {
			histo[min(i+1, kmax+1)]++
			copy(stack[1:i+1], stack[:i])
			stack[0] = p
			for j := 0; j <= i; j++ {
				pos[stack[j]] = j
			}
		} else {
			histo[kmax+1]++
			stack = append(stack, core.NoPage)
			copy(stack[1:], stack[:len(stack)-1])
			stack[0] = p
			for j := range stack {
				pos[stack[j]] = j
			}
		}
	}
	beyond := histo[kmax+1]
	for k := kmax; k >= 0; k-- {
		curve[k] = beyond
		if k >= 1 {
			beyond += histo[k]
		}
	}
	curve[0] = int64(len(seq))
	return curve
}

// optHeapItem is a lazy max-heap entry for the oracle Belady simulation.
type optHeapItem struct {
	next int64 // next-use index (math.MaxInt64 = never)
	page core.PageID
}

type optHeap []optHeapItem

func (h optHeap) Len() int { return len(h) }
func (h optHeap) Less(i, j int) bool {
	if h[i].next != h[j].next {
		return h[i].next > h[j].next // max-heap on next use
	}
	return h[i].page < h[j].page
}
func (h optHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *optHeap) Push(x interface{}) { *h = append(*h, x.(optHeapItem)) }
func (h *optHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// oracleOPTMisses is an independent OPT oracle: it simulates Belady's
// algorithm with a dedicated cache of k pages, one size at a time, with a
// lazy max-heap on next use.
func oracleOPTMisses(seq core.Sequence, k int) int64 {
	if k <= 0 {
		return int64(len(seq))
	}
	next := make([]int64, len(seq))
	last := make(map[core.PageID]int)
	for i := len(seq) - 1; i >= 0; i-- {
		if j, ok := last[seq[i]]; ok {
			next[i] = int64(j)
		} else {
			next[i] = math.MaxInt64
		}
		last[seq[i]] = i
	}
	inCache := make(map[core.PageID]bool)
	curNext := make(map[core.PageID]int64)
	h := &optHeap{}
	var misses int64
	for i, p := range seq {
		if inCache[p] {
			curNext[p] = next[i]
			heap.Push(h, optHeapItem{next: next[i], page: p})
			continue
		}
		misses++
		if len(inCache) >= k {
			for { // pop lazily until a live entry surfaces
				it := heap.Pop(h).(optHeapItem)
				if inCache[it.page] && curNext[it.page] == it.next {
					delete(inCache, it.page)
					delete(curNext, it.page)
					break
				}
			}
		}
		inCache[p] = true
		curNext[p] = next[i]
		heap.Push(h, optHeapItem{next: next[i], page: p})
	}
	return misses
}

// checkCurves compares both curves of seq against the oracles, and the
// OPT curve against exhaustive search when the input is tiny enough.
func checkCurves(t *testing.T, seq core.Sequence, kmax int) {
	t.Helper()
	lruGot, optGot := mattson.LRUCurve(seq, kmax), mattson.OPTCurve(seq, kmax)
	if want := oracleLRUCurve(seq, kmax); !reflect.DeepEqual(lruGot, want) {
		t.Fatalf("seq=%v kmax=%d: LRUCurve %v, oracle %v", seq, kmax, lruGot, want)
	}
	if len(optGot) != kmax+1 {
		t.Fatalf("seq=%v kmax=%d: OPTCurve has %d points", seq, kmax, len(optGot))
	}
	for k, got := range optGot {
		if want := oracleOPTMisses(seq, k); got != want {
			t.Fatalf("seq=%v k=%d: OPTCurve %d, oracle %d", seq, k, got, want)
		}
		if len(seq) <= 9 && k >= 1 && k <= 3 {
			if want := bruteOPT(seq, k); got != want {
				t.Fatalf("seq=%v k=%d: OPTCurve %d, brute force %d", seq, k, got, want)
			}
		}
	}
}

// fuzzSeq decodes one page per byte: the low four bits pick the page and
// bit 4 moves it into a sparse ID range near 2^30.
func fuzzSeq(data []byte) core.Sequence {
	seq := make(core.Sequence, len(data))
	for i, b := range data {
		seq[i] = core.PageID(b & 0x0f)
		if b&0x10 != 0 {
			seq[i] += 1 << 30
		}
	}
	return seq
}

func TestMissCurvesMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1970))
	for trial := 0; trial < 1000; trial++ {
		data := make([]byte, rng.Intn(120))
		rng.Read(data)
		if trial%2 == 0 {
			for i := range data {
				data[i] &^= 0x10 // dense IDs
			}
		}
		checkCurves(t, fuzzSeq(data), rng.Intn(20))
	}
}

// TestMissCurvesOnZipfTrace checks every core of a 4×16K Zipf trace, the
// shape of the portfolio sweep, at every size up to 256 (OPT at sampled
// sizes: the per-size oracle is slow).
func TestMissCurvesOnZipfTrace(t *testing.T) {
	rs := zipfTrace(t, 4, 16384, 1024, 951)
	const kmax = 256
	for j, seq := range rs {
		if got, want := mattson.LRUCurve(seq, kmax), oracleLRUCurve(seq, kmax); !reflect.DeepEqual(got, want) {
			t.Fatalf("core %d: LRUCurve differs from the oracle", j)
		}
		opt := mattson.OPTCurve(seq, kmax)
		for _, k := range []int{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 256} {
			if want := oracleOPTMisses(seq, k); opt[k] != want {
				t.Fatalf("core %d k=%d: OPTCurve %d, oracle %d", j, k, opt[k], want)
			}
		}
	}
}

func FuzzMissCurves(f *testing.F) {
	f.Add(byte(3), []byte{1, 2, 3, 1, 2, 3})
	f.Add(byte(2), []byte{0, 1, 2, 0, 1, 3, 0, 4})
	f.Add(byte(5), []byte{0x11, 0x12, 1, 0x11, 2, 0x12, 0x13, 1})
	f.Add(byte(0), []byte{7, 7, 7})
	f.Add(byte(9), []byte{})
	f.Fuzz(func(t *testing.T, kmax byte, data []byte) {
		if len(data) > 400 {
			data = data[:400]
		}
		checkCurves(t, fuzzSeq(data), int(kmax%24))
	})
}

func zipfTrace(tb testing.TB, cores, length, pages int, seed int64) core.RequestSet {
	tb.Helper()
	rs, err := workload.Generate(workload.Spec{Cores: cores, Length: length, Pages: pages, Kind: workload.Zipf, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return rs
}

// TestOptimalLargeSizes: partition sizes above 32767 come back intact.
func TestOptimalLargeSizes(t *testing.T) {
	const k = 40000
	curve := make([]int64, k+1)
	for s := range curve {
		curve[s] = int64(k - s)
	}
	part, err := mattson.Optimal([][]int64{curve}, k, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(part.Sizes, []int{k}) || part.Faults != 0 {
		t.Fatalf("partition %+v, want sizes [%d] with 0 faults", part, k)
	}
}

// TestOptimalBoundedByInstance: the sP^OPT partitions do not change once
// K exceeds the distinct pages, and their cost follows the instance, not
// the K the caller claims.
func TestOptimalBoundedByInstance(t *testing.T) {
	rs := zipfTrace(t, 4, 4000, 256, 3)
	distinct := len(rs.Universe())
	for _, tc := range []struct {
		name    string
		optimal func(core.RequestSet, int) (mattson.Partition, error)
	}{{"LRU", mattson.OptimalLRU}, {"OPT", mattson.OptimalOPT}} {
		want, err := tc.optimal(rs, distinct)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2 * distinct, 1 << 16} {
			if got, err := tc.optimal(rs, k); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s K=%d: %+v (%v), want %+v as at K=%d", tc.name, k, got, err, want, distinct)
			}
		}
		for _, in := range []core.RequestSet{rs[:1], rs} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := tc.optimal(in, 1<<16); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Fatalf("%s on %d cores at K=65536 allocated %d bytes, want ≤ 1 MB", tc.name, len(in), alloc)
			}
		}
	}
}

var curveSink []int64

func BenchmarkMissCurves(b *testing.B) {
	rs := zipfTrace(b, 4, 16384, 1024, 951)
	for _, bc := range []struct {
		name  string
		curve func(core.Sequence, int) []int64
	}{{"LRU", mattson.LRUCurve}, {"OPT", mattson.OPTCurve}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, seq := range rs {
					curveSink = bc.curve(seq, 256)
				}
			}
		})
	}
}
