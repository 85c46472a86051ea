package cache

import "mcpaging/internal/core"

// denseListCap bounds the paged per-page tables of the array-backed
// policies (the recency list, MARK's epochs, FITF's positions): page IDs
// below it index a pageTable; IDs at or above it, and negative IDs, are
// kept in per-policy overflow maps. A table allocates only the
// 4096-ID pages its domain touches, so its memory follows the IDs in use
// rather than the largest one — a served job's namespaced IDs j·65536+x
// cost one page per core. The simulator renumbers sparse inputs before
// they reach a policy, so the overflow path only triggers for strategies
// fed raw sparse IDs directly.
const denseListCap = 1 << 20

// A table page covers 1<<pageBits IDs; pageMask picks an ID's slot.
const (
	pageBits = 12
	pageMask = 1<<pageBits - 1
)

// dense reports whether p is in a pageTable's range [0, denseListCap).
func dense(p core.PageID) bool { return uint32(p) < denseListCap }

// pageTable is a per-page-ID array over [0, denseListCap), stored as a
// directory of fixed 4096-entry pages allocated on first write. The
// zero T means "absent", so a fresh page needs no fill loop and reads
// of never-written pages need no page at all.
type pageTable[T any] struct {
	dir []*[1 << pageBits]T
}

// ref returns p's slot, or nil if p's page was never allocated. p must
// be dense.
//
//mcpaging:hotpath
func (t *pageTable[T]) ref(p core.PageID) *T {
	if d := int(p >> pageBits); d < len(t.dir) {
		if pg := t.dir[d]; pg != nil {
			return &pg[p&pageMask]
		}
	}
	return nil
}

// at returns the slot of a p whose page is known to exist (p was
// written before).
//
//mcpaging:hotpath
func (t *pageTable[T]) at(p core.PageID) *T { return &t.dir[p>>pageBits][p&pageMask] }

// slot returns p's slot, allocating its page on first touch. p must be
// dense.
//
//mcpaging:hotpath
func (t *pageTable[T]) slot(p core.PageID) *T {
	d := int(p >> pageBits)
	if d >= len(t.dir) || t.dir[d] == nil {
		t.alloc(d)
	}
	return &t.dir[d][p&pageMask]
}

// alloc adds page d, growing the directory to cover it.
func (t *pageTable[T]) alloc(d int) {
	if d >= len(t.dir) {
		t.dir = append(t.dir, make([]*[1 << pageBits]T, d+1-len(t.dir))...)
	}
	t.dir[d] = new([1 << pageBits]T)
}
