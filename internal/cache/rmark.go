package cache

import (
	"math/rand"
	"sort"

	"mcpaging/internal/core"
)

// RMark is the classic randomized marking algorithm (Fiat et al. 1991):
// pages are marked on insertion and on hits; victims are drawn uniformly
// at random among the unmarked pages; when every page is marked a new
// phase begins. In sequential paging it is Θ(log k)-competitive — the
// randomized counterpart of MARK in the E13/E18 comparisons. Seeded and
// reproducible like RAND.
type RMark struct {
	pages  map[core.PageID]struct{}
	marked map[core.PageID]bool
	rng    *rand.Rand
	seed   int64
}

// NewRMark returns an empty randomized-marking policy.
func NewRMark(seed int64) *RMark {
	return &RMark{
		pages:  make(map[core.PageID]struct{}),
		marked: make(map[core.PageID]bool),
		rng:    rand.New(rand.NewSource(seed)),
		seed:   seed,
	}
}

// Name implements Policy.
func (m *RMark) Name() string { return "RMARK" }

// Insert implements Policy.
func (m *RMark) Insert(p core.PageID, _ Access) {
	if _, ok := m.pages[p]; ok {
		panic("cache: duplicate insert of page in RMARK domain")
	}
	m.pages[p] = struct{}{}
	m.marked[p] = true
}

// Touch implements Policy.
func (m *RMark) Touch(p core.PageID, _ Access) {
	if _, ok := m.pages[p]; ok {
		m.marked[p] = true
	}
}

// Evict implements Policy: a uniformly random unmarked evictable page;
// if every evictable page is marked, a new phase begins.
func (m *RMark) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	pick := func() (core.PageID, bool) {
		var cands []core.PageID
		for p := range m.pages {
			if !m.marked[p] && (evictable == nil || evictable(p)) {
				cands = append(cands, p)
			}
		}
		if len(cands) == 0 {
			return core.NoPage, false
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		return cands[m.rng.Intn(len(cands))], true
	}
	if v, ok := pick(); ok {
		delete(m.pages, v)
		delete(m.marked, v)
		return v, true
	}
	// All unmarked pages are pinned, or all pages are marked: open a new
	// phase only if some evictable page exists at all.
	any := false
	//mcvet:ignore detmap existence scan with early break is order-independent
	for p := range m.pages {
		if evictable == nil || evictable(p) {
			any = true
			break
		}
	}
	if !any {
		return core.NoPage, false
	}
	clear(m.marked)
	if v, ok := pick(); ok {
		delete(m.pages, v)
		delete(m.marked, v)
		return v, true
	}
	return core.NoPage, false
}

// Remove implements Policy.
func (m *RMark) Remove(p core.PageID) bool {
	if _, ok := m.pages[p]; !ok {
		return false
	}
	delete(m.pages, p)
	delete(m.marked, p)
	return true
}

// Contains implements Policy.
func (m *RMark) Contains(p core.PageID) bool {
	_, ok := m.pages[p]
	return ok
}

// Len implements Policy.
func (m *RMark) Len() int { return len(m.pages) }

// Reset implements Policy; the seed replays.
func (m *RMark) Reset() {
	m.pages = make(map[core.PageID]struct{})
	m.marked = make(map[core.PageID]bool)
	m.rng = rand.New(rand.NewSource(m.seed))
}

// Resize implements Policy: RMARK's victim choice is capacity-independent.
func (m *RMark) Resize(int) {}
