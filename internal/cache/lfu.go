package cache

import (
	"mcpaging/internal/core"
)

// lfuEntry is the metadata LFU keeps per page.
type lfuEntry struct {
	freq int64
	last int64 // sequence number of the most recent access, for tie-breaks
}

// LFU evicts the least frequently used page, breaking ties by least
// recent access and then by smallest page ID, so victim selection is
// fully deterministic. Victim search scans the domain, which is at most K
// pages; for the cache sizes exercised in this library that is faster in
// practice than maintaining a heap under the evictable-predicate
// constraint.
type LFU struct {
	meta map[core.PageID]lfuEntry
	seq  int64
}

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU { return &LFU{meta: make(map[core.PageID]lfuEntry)} }

// Name implements Policy.
func (l *LFU) Name() string { return "LFU" }

// Insert implements Policy. A newly inserted page starts with frequency 1
// (the faulting access counts).
func (l *LFU) Insert(p core.PageID, _ Access) {
	if _, ok := l.meta[p]; ok {
		panic("cache: duplicate insert of page in LFU domain")
	}
	l.seq++
	l.meta[p] = lfuEntry{freq: 1, last: l.seq}
}

// Touch implements Policy.
func (l *LFU) Touch(p core.PageID, _ Access) {
	e, ok := l.meta[p]
	if !ok {
		return
	}
	l.seq++
	e.freq++
	e.last = l.seq
	l.meta[p] = e
}

// Evict implements Policy.
func (l *LFU) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	best := core.NoPage
	var bestE lfuEntry
	//mcvet:ignore detmap min-reduction under the total order less() is order-independent
	for p, e := range l.meta {
		if evictable != nil && !evictable(p) {
			continue
		}
		if best == core.NoPage || less(e, p, bestE, best) {
			best, bestE = p, e
		}
	}
	if best == core.NoPage {
		return core.NoPage, false
	}
	delete(l.meta, best)
	return best, true
}

// less orders (entry, page) pairs by eviction preference: lower frequency
// first, then older access, then smaller page ID.
func less(a lfuEntry, ap core.PageID, b lfuEntry, bp core.PageID) bool {
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	if a.last != b.last {
		return a.last < b.last
	}
	return ap < bp
}

// Remove implements Policy.
func (l *LFU) Remove(p core.PageID) bool {
	if _, ok := l.meta[p]; !ok {
		return false
	}
	delete(l.meta, p)
	return true
}

// Contains implements Policy.
func (l *LFU) Contains(p core.PageID) bool {
	_, ok := l.meta[p]
	return ok
}

// Len implements Policy.
func (l *LFU) Len() int { return len(l.meta) }

// Reset implements Policy.
func (l *LFU) Reset() {
	l.meta = make(map[core.PageID]lfuEntry)
	l.seq = 0
}

// Resize implements Policy: LFU's victim choice is capacity-independent.
func (l *LFU) Resize(int) {}
