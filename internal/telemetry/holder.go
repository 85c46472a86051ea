package telemetry

import "mcpaging/internal/core"

// holderTable maps each cached page to the core whose fetch brought it
// in. It is an open-addressed hash table with linear probing and
// backward-shift deletion, sized from the cache's residency rather than
// from the page-ID range, so a run with sparse, namespaced page IDs
// costs the same as one over 0..n−1. It starts at most a quarter full,
// which keeps most probe runs to one slot, and only grows — doubling
// when more than 3/4 full — so a table pre-sized for the run never
// allocates while events arrive.
type holderTable struct {
	slots []holderSlot // len is a power of two
	shift uint         // 64 − log2(len(slots))
	n     int          // occupied slots
}

// holderSlot is one table entry; page == core.NoPage marks it empty.
type holderSlot struct {
	page core.PageID
	core int32
}

// newHolderTable returns a table for residency entries.
func newHolderTable(residency int) holderTable {
	bits := uint(3)
	for 1<<bits < 4*residency {
		bits++
	}
	return makeHolderTable(bits)
}

func makeHolderTable(bits uint) holderTable {
	t := holderTable{slots: make([]holderSlot, 1<<bits), shift: 64 - bits}
	for i := range t.slots {
		t.slots[i].page = core.NoPage
	}
	return t
}

// home is p's preferred slot: Fibonacci hashing keeps the per-core
// namespaces (j·65536 + x) from piling onto a few slots.
func (t *holderTable) home(p core.PageID) int {
	return int((uint64(uint32(p)) * 0x9E3779B97F4A7C15) >> t.shift)
}

// put records that core c holds page p, replacing any earlier holder.
func (t *holderTable) put(p core.PageID, c int32) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(p); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.page == p {
			s.core = c
			return
		}
		if s.page == core.NoPage {
			*s = holderSlot{page: p, core: c}
			t.n++
			return
		}
	}
}

// remove deletes p and returns the core that held it, if any.
func (t *holderTable) remove(p core.PageID) (int32, bool) {
	if p == core.NoPage {
		return 0, false
	}
	mask := len(t.slots) - 1
	i := t.home(p)
	for {
		s := t.slots[i]
		if s.page == p {
			break
		}
		if s.page == core.NoPage {
			return 0, false
		}
		i = (i + 1) & mask
	}
	c := t.slots[i].core
	// Backward shift: pull each later entry of the probe run into the
	// hole unless the hole lies before its home slot (cyclically).
	for j := (i + 1) & mask; t.slots[j].page != core.NoPage; j = (j + 1) & mask {
		if h := t.home(t.slots[j].page); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i].page = core.NoPage
	t.n--
	return c, true
}

// grow doubles the table and reinserts every entry.
func (t *holderTable) grow() {
	old := t.slots
	*t = makeHolderTable(65 - t.shift)
	for _, s := range old {
		if s.page != core.NoPage {
			t.put(s.page, s.core)
		}
	}
}
