package cache

import (
	"mcpaging/internal/core"
)

// rnode is one intrusive list node; prev and next hold page IDs, with
// core.NoPage as the list-end sentinel. The zero node marks a page that
// is not in the list: a listed page's neighbours are distinct pages, or
// both core.NoPage, so prev == next == 0 never holds for one.
type rnode struct{ prev, next core.PageID }

// recencyList is the shared machinery of the recency-ordered policies
// (LRU, MRU, FIFO, MARK, and ARC's and SLRU's segments): an intrusive
// doubly linked list from least to most recently used/inserted, with
// nodes indexed by page ID in a pageTable instead of heap-allocated list
// elements.
type recencyList struct {
	nodes pageTable[rnode]       // dense nodes, index = page ID
	big   map[core.PageID]*rnode // overflow nodes for IDs outside the table
	head  core.PageID            // least recent; core.NoPage when empty
	tail  core.PageID            // most recent; core.NoPage when empty
	n     int
}

func newRecencyList() recencyList {
	return recencyList{head: core.NoPage, tail: core.NoPage}
}

// node returns the in-list node for p, or nil if p is not in the list.
//
//mcpaging:hotpath
func (r *recencyList) node(p core.PageID) *rnode {
	if dense(p) {
		nd := r.nodes.ref(p)
		if nd == nil || *nd == (rnode{}) {
			return nil
		}
		return nd
	}
	return r.big[p]
}

// mustNode returns the node of a page known to be in the list.
//
//mcpaging:hotpath
func (r *recencyList) mustNode(p core.PageID) *rnode {
	if dense(p) {
		return r.nodes.at(p)
	}
	return r.big[p]
}

//mcpaging:hotpath
func (r *recencyList) insert(p core.PageID) {
	var nd *rnode
	if dense(p) {
		nd = r.nodes.slot(p)
		if *nd != (rnode{}) {
			panic("cache: duplicate insert of page in replacement domain")
		}
	} else {
		if r.big == nil {
			r.big = make(map[core.PageID]*rnode) //mcvet:ignore hotalloc sparse-ID overflow path, cold by construction
		}
		if r.big[p] != nil {
			panic("cache: duplicate insert of page in replacement domain")
		}
		nd = &rnode{} //mcvet:ignore hotalloc sparse-ID overflow path, cold by construction
		r.big[p] = nd
	}
	nd.prev, nd.next = r.tail, core.NoPage
	if r.tail != core.NoPage {
		r.mustNode(r.tail).next = p
	} else {
		r.head = p
	}
	r.tail = p
	r.n++
}

//mcpaging:hotpath
func (r *recencyList) moveToBack(p core.PageID) {
	nd := r.node(p)
	if nd == nil || r.tail == p {
		return
	}
	// Detach: p is not the tail, so nd.next is a real page.
	if nd.prev != core.NoPage {
		r.mustNode(nd.prev).next = nd.next
	} else {
		r.head = nd.next
	}
	r.mustNode(nd.next).prev = nd.prev
	// Reattach at the tail (non-empty: p itself is in the list).
	nd.prev, nd.next = r.tail, core.NoPage
	r.mustNode(r.tail).next = p
	r.tail = p
}

//mcpaging:hotpath
func (r *recencyList) remove(p core.PageID) bool {
	nd := r.node(p)
	if nd == nil {
		return false
	}
	r.unlink(p, nd)
	return true
}

// unlink detaches an in-list node and marks it absent.
//
//mcpaging:hotpath
func (r *recencyList) unlink(p core.PageID, nd *rnode) {
	if nd.prev != core.NoPage {
		r.mustNode(nd.prev).next = nd.next
	} else {
		r.head = nd.next
	}
	if nd.next != core.NoPage {
		r.mustNode(nd.next).prev = nd.prev
	} else {
		r.tail = nd.prev
	}
	if dense(p) {
		*nd = rnode{}
	} else {
		delete(r.big, p)
	}
	r.n--
}

func (r *recencyList) contains(p core.PageID) bool { return r.node(p) != nil }

func (r *recencyList) len() int { return r.n }

// front returns the least recent page, or core.NoPage if empty.
func (r *recencyList) front() core.PageID { return r.head }

// back returns the most recent page, or core.NoPage if empty.
func (r *recencyList) back() core.PageID { return r.tail }

// nextOf returns the page after p (toward most recent).
func (r *recencyList) nextOf(p core.PageID) core.PageID { return r.mustNode(p).next }

// prevOf returns the page before p (toward least recent).
func (r *recencyList) prevOf(p core.PageID) core.PageID { return r.mustNode(p).prev }

func (r *recencyList) reset() {
	for p := r.head; p != core.NoPage; {
		nd := r.mustNode(p)
		next := nd.next
		if dense(p) {
			*nd = rnode{}
		}
		p = next
	}
	if r.big != nil {
		clear(r.big)
	}
	r.head, r.tail = core.NoPage, core.NoPage
	r.n = 0
}

// evictFront removes and returns the first evictable page scanning from
// the front of the list.
//
//mcpaging:hotpath
func (r *recencyList) evictFront(evictable func(core.PageID) bool) (core.PageID, bool) {
	for p := r.head; p != core.NoPage; {
		nd := r.mustNode(p)
		if evictable == nil || evictable(p) {
			r.unlink(p, nd)
			return p, true
		}
		p = nd.next
	}
	return core.NoPage, false
}

// evictBack removes and returns the first evictable page scanning from
// the back of the list.
//
//mcpaging:hotpath
func (r *recencyList) evictBack(evictable func(core.PageID) bool) (core.PageID, bool) {
	for p := r.tail; p != core.NoPage; {
		nd := r.mustNode(p)
		if evictable == nil || evictable(p) {
			r.unlink(p, nd)
			return p, true
		}
		p = nd.prev
	}
	return core.NoPage, false
}

// LRU evicts the least recently used page of its domain. With a shared
// domain this is the paper's S_LRU eviction rule; with one domain per
// part it is the per-part rule of sP_LRU and dP_LRU.
type LRU struct{ r recencyList }

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{r: newRecencyList()} }

// Name implements Policy.
func (l *LRU) Name() string { return "LRU" }

// Insert implements Policy.
func (l *LRU) Insert(p core.PageID, _ Access) { l.r.insert(p) }

// Touch implements Policy.
func (l *LRU) Touch(p core.PageID, _ Access) { l.r.moveToBack(p) }

// Evict implements Policy.
func (l *LRU) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	return l.r.evictFront(evictable)
}

// Remove implements Policy.
func (l *LRU) Remove(p core.PageID) bool { return l.r.remove(p) }

// Contains implements Policy.
func (l *LRU) Contains(p core.PageID) bool { return l.r.contains(p) }

// Len implements Policy.
func (l *LRU) Len() int { return l.r.len() }

// Reset implements Policy.
func (l *LRU) Reset() { l.r.reset() }

// Resize implements Policy: LRU's victim choice is capacity-independent.
func (l *LRU) Resize(int) {}

// LeastRecent returns the least recently used page currently in the
// domain without removing it. It is used by the Lemma-3 dynamic
// partition, which must locate the globally least recent page across
// parts. ok is false when the domain is empty or nothing is evictable.
func (l *LRU) LeastRecent(evictable func(core.PageID) bool) (core.PageID, bool) {
	for p := l.r.front(); p != core.NoPage; p = l.r.nextOf(p) {
		if evictable == nil || evictable(p) {
			return p, true
		}
	}
	return core.NoPage, false
}

// MRU evicts the most recently used page. It is the classic pathological
// counterpoint to LRU on looping workloads and appears in the E13 policy
// matrix.
type MRU struct{ r recencyList }

// NewMRU returns an empty MRU policy.
func NewMRU() *MRU { return &MRU{r: newRecencyList()} }

// Name implements Policy.
func (m *MRU) Name() string { return "MRU" }

// Insert implements Policy.
func (m *MRU) Insert(p core.PageID, _ Access) { m.r.insert(p) }

// Touch implements Policy.
func (m *MRU) Touch(p core.PageID, _ Access) { m.r.moveToBack(p) }

// Evict implements Policy.
func (m *MRU) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	return m.r.evictBack(evictable)
}

// Remove implements Policy.
func (m *MRU) Remove(p core.PageID) bool { return m.r.remove(p) }

// Contains implements Policy.
func (m *MRU) Contains(p core.PageID) bool { return m.r.contains(p) }

// Len implements Policy.
func (m *MRU) Len() int { return m.r.len() }

// Reset implements Policy.
func (m *MRU) Reset() { m.r.reset() }

// Resize implements Policy: MRU's victim choice is capacity-independent.
func (m *MRU) Resize(int) {}

// FIFO evicts the page that has been in the domain longest, regardless of
// hits. It is a conservative policy, so Lemma 1's upper bound applies to
// it.
type FIFO struct{ r recencyList }

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return &FIFO{r: newRecencyList()} }

// Name implements Policy.
func (f *FIFO) Name() string { return "FIFO" }

// Insert implements Policy.
func (f *FIFO) Insert(p core.PageID, _ Access) { f.r.insert(p) }

// Touch implements Policy. FIFO ignores hits.
func (f *FIFO) Touch(core.PageID, Access) {}

// Evict implements Policy.
func (f *FIFO) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	return f.r.evictFront(evictable)
}

// Remove implements Policy.
func (f *FIFO) Remove(p core.PageID) bool { return f.r.remove(p) }

// Contains implements Policy.
func (f *FIFO) Contains(p core.PageID) bool { return f.r.contains(p) }

// Len implements Policy.
func (f *FIFO) Len() int { return f.r.len() }

// Reset implements Policy.
func (f *FIFO) Reset() { f.r.reset() }

// Resize implements Policy: FIFO's victim choice is capacity-independent.
func (f *FIFO) Resize(int) {}
