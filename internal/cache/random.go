package cache

import (
	"math/rand"
	"slices"

	"mcpaging/internal/core"
)

// Random evicts a uniformly random evictable page. The generator is
// seeded explicitly so a simulation with a Random policy is reproducible;
// candidates are sorted before sampling so the choice does not depend on
// map iteration order.
type Random struct {
	pages map[core.PageID]struct{}
	buf   []core.PageID // candidate scratch, reused across evictions
	rng   *rand.Rand
	seed  int64
}

// NewRandom returns an empty Random policy driven by the given seed.
func NewRandom(seed int64) *Random {
	return &Random{
		pages: make(map[core.PageID]struct{}),
		rng:   rand.New(rand.NewSource(seed)),
		seed:  seed,
	}
}

// Name implements Policy.
func (r *Random) Name() string { return "RAND" }

// Insert implements Policy.
func (r *Random) Insert(p core.PageID, _ Access) {
	if _, ok := r.pages[p]; ok {
		panic("cache: duplicate insert of page in RAND domain")
	}
	r.pages[p] = struct{}{}
}

// Touch implements Policy. Random ignores hits.
func (r *Random) Touch(core.PageID, Access) {}

// Evict implements Policy.
func (r *Random) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	cands := r.buf[:0]
	for p := range r.pages {
		if evictable == nil || evictable(p) {
			cands = append(cands, p)
		}
	}
	r.buf = cands
	if len(cands) == 0 {
		return core.NoPage, false
	}
	slices.Sort(cands)
	v := cands[r.rng.Intn(len(cands))]
	delete(r.pages, v)
	return v, true
}

// Remove implements Policy.
func (r *Random) Remove(p core.PageID) bool {
	if _, ok := r.pages[p]; !ok {
		return false
	}
	delete(r.pages, p)
	return true
}

// Contains implements Policy.
func (r *Random) Contains(p core.PageID) bool {
	_, ok := r.pages[p]
	return ok
}

// Len implements Policy.
func (r *Random) Len() int { return len(r.pages) }

// Reset implements Policy. The generator is re-seeded so a reset policy
// replays identically.
func (r *Random) Reset() {
	clear(r.pages)
	r.rng = rand.New(rand.NewSource(r.seed))
}

// Resize implements Policy: RAND's victim choice is capacity-independent.
func (r *Random) Resize(int) {}
