package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"mcpaging/internal/core"
)

// modelList is a trivially correct recency order: a slice from least to
// most recent. The intrusive recencyList is checked against it under
// randomized operation sequences.
type modelList struct{ pages []core.PageID }

func (m *modelList) find(p core.PageID) int {
	for i, q := range m.pages {
		if q == p {
			return i
		}
	}
	return -1
}

func (m *modelList) insert(p core.PageID) { m.pages = append(m.pages, p) }

func (m *modelList) moveToBack(p core.PageID) {
	if i := m.find(p); i >= 0 {
		m.pages = append(append(m.pages[:i:i], m.pages[i+1:]...), p)
	}
}

func (m *modelList) remove(p core.PageID) bool {
	i := m.find(p)
	if i < 0 {
		return false
	}
	m.pages = append(m.pages[:i:i], m.pages[i+1:]...)
	return true
}

func (m *modelList) evictFront(pred func(core.PageID) bool) (core.PageID, bool) {
	for _, p := range m.pages {
		if pred == nil || pred(p) {
			m.remove(p)
			return p, true
		}
	}
	return core.NoPage, false
}

func (m *modelList) evictBack(pred func(core.PageID) bool) (core.PageID, bool) {
	for i := len(m.pages) - 1; i >= 0; i-- {
		p := m.pages[i]
		if pred == nil || pred(p) {
			m.remove(p)
			return p, true
		}
	}
	return core.NoPage, false
}

// edgeIDs are the page IDs where the paged table's representation
// changes: both sides of table-page boundaries, the per-core namespaces
// of served jobs (j·65536+x), and both sides of denseListCap, past
// which pages live in the overflow map.
var edgeIDs = []core.PageID{
	0, 1, pageMask, pageMask + 1, 2*pageMask + 1, 2 * (pageMask + 1),
	1 << 16, 3<<16 + 1, denseListCap - 2, denseListCap - 1, denseListCap, denseListCap + 1,
}

// recencyPred is the evictability predicate of the differential tests:
// pseudo-random but identical for both structures.
func recencyPred(p core.PageID) bool { return (int(p)/7)%3 != 0 }

// stepRecency applies operation op (0–5) on page p to the intrusive list
// and the model, and returns a description of the first disagreement
// ("" when they agree). Reset (op 5) clears both.
func stepRecency(r *recencyList, m *modelList, op int, p core.PageID) string {
	switch op {
	case 0: // insert (skip duplicates, which panic by contract)
		if !r.contains(p) {
			r.insert(p)
			m.insert(p)
		}
	case 1:
		r.moveToBack(p)
		m.moveToBack(p)
	case 2:
		if got, want := r.remove(p), m.remove(p); got != want {
			return fmt.Sprintf("remove(%d) = %v, model %v", p, got, want)
		}
	case 3:
		gp, gok := r.evictFront(recencyPred)
		wp, wok := m.evictFront(recencyPred)
		if gp != wp || gok != wok {
			return fmt.Sprintf("evictFront = (%d,%v), model (%d,%v)", gp, gok, wp, wok)
		}
	case 4:
		gp, gok := r.evictBack(recencyPred)
		wp, wok := m.evictBack(recencyPred)
		if gp != wp || gok != wok {
			return fmt.Sprintf("evictBack = (%d,%v), model (%d,%v)", gp, gok, wp, wok)
		}
	case 5:
		r.reset()
		m.pages = m.pages[:0]
	}
	if r.len() != len(m.pages) {
		return fmt.Sprintf("len = %d, model %d", r.len(), len(m.pages))
	}
	if r.contains(p) != (m.find(p) >= 0) {
		return fmt.Sprintf("contains(%d) mismatch", p)
	}
	return ""
}

// sameOrder compares the list with the model front to back, then back
// to front, and checks every pool ID's membership.
func sameOrder(r *recencyList, m *modelList, pool []core.PageID) string {
	p := r.front()
	for _, want := range m.pages {
		if p != want {
			return fmt.Sprintf("order: got %d, model %d", p, want)
		}
		p = r.nextOf(p)
	}
	if p != core.NoPage {
		return "list longer than model"
	}
	p = r.back()
	for i := len(m.pages) - 1; i >= 0; i-- {
		if p != m.pages[i] {
			return fmt.Sprintf("reverse order: got %d, model %d", p, m.pages[i])
		}
		p = r.prevOf(p)
	}
	for _, q := range pool {
		if r.contains(q) != (m.find(q) >= 0) {
			return fmt.Sprintf("contains(%d) mismatch", q)
		}
	}
	return ""
}

// TestRecencyListMatchesModel drives the intrusive paged list and the
// slice model with the same random operations and requires identical
// observable behaviour. The ID pool mixes small IDs, the edge IDs of the
// paged table and the overflow map, served-job namespaces and IDs far
// above denseListCap, so every representation and their interaction are
// covered; resets recur, so a list reset after sparse IDs must read as
// empty and refill correctly.
func TestRecencyListMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ids := append([]core.PageID(nil), edgeIDs...)
	for i := 0; len(ids) < 64; i++ {
		switch i % 4 {
		case 3:
			ids = append(ids, denseListCap+core.PageID(i)*977) // overflow path
		case 2:
			ids = append(ids, core.PageID(rng.Intn(4)<<16+rng.Intn(64)))
		default:
			ids = append(ids, core.PageID(rng.Intn(500)))
		}
	}

	r := newRecencyList()
	var m modelList
	for step := 0; step < 40000; step++ {
		p := ids[rng.Intn(len(ids))]
		op := rng.Intn(6)
		if op == 5 && rng.Intn(200) != 0 {
			continue // occasional full reset
		}
		if msg := stepRecency(&r, &m, op, p); msg != "" {
			t.Fatalf("step %d: %s", step, msg)
		}
	}
	if msg := sameOrder(&r, &m, ids); msg != "" {
		t.Fatal(msg)
	}
	// Reset after sparse IDs: nothing survives, and refilling in pool
	// order rebuilds exactly that order.
	r.reset()
	m.pages = m.pages[:0]
	if msg := sameOrder(&r, &m, ids); msg != "" {
		t.Fatalf("after reset: %s", msg)
	}
	for _, p := range ids {
		if msg := stepRecency(&r, &m, 0, p); msg != "" {
			t.Fatalf("refill: %s", msg)
		}
	}
	if msg := sameOrder(&r, &m, ids); msg != "" {
		t.Fatalf("after refill: %s", msg)
	}
}

// FuzzRecencyListDifferential runs fuzzed operation sequences against
// the list and the slice model. Each operation takes two bytes: the
// operation (mod 6) and a page, chosen from the edge IDs or, for bytes
// past them, spread over the first table pages and the overflow range.
func FuzzRecencyListDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 3, 0, 1, 1, 4, 0})
	f.Add([]byte{0, 3, 0, 4, 0, 9, 0, 10, 1, 3, 5, 0, 0, 10, 0, 4, 2, 9, 3, 0})
	f.Add([]byte{0, 200, 0, 201, 0, 255, 0, 20, 1, 200, 2, 201, 4, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		page := func(b byte) core.PageID {
			if int(b) < len(edgeIDs) {
				return edgeIDs[b]
			}
			if b >= 224 {
				return denseListCap + core.PageID(b)*4099
			}
			return core.PageID(b) * 1021
		}
		r := newRecencyList()
		var m modelList
		pool := append([]core.PageID(nil), edgeIDs...)
		for i := 0; i+1 < len(data); i += 2 {
			p := page(data[i+1])
			pool = append(pool, p)
			if msg := stepRecency(&r, &m, int(data[i])%6, p); msg != "" {
				t.Fatalf("op %d: %s", i/2, msg)
			}
		}
		if msg := sameOrder(&r, &m, pool); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestFITFPositionIndex drives FITF's slice+position-index domain through
// random insert/remove/contains traffic (no oracle needed) against a map
// model, covering the paged pos table, its page boundaries and the
// bigPos overflow.
func TestFITFPositionIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := NewFITF()
	model := map[core.PageID]bool{}
	for step := 0; step < 20000; step++ {
		var p core.PageID
		switch rng.Intn(8) {
		case 0, 1:
			p = denseListCap + core.PageID(rng.Intn(30))*131
		case 2:
			p = edgeIDs[rng.Intn(len(edgeIDs))]
		default:
			p = core.PageID(rng.Intn(300))
		}
		switch rng.Intn(3) {
		case 0:
			if !model[p] {
				f.Insert(p, Access{})
				model[p] = true
			}
		case 1:
			if got, want := f.Remove(p), model[p]; got != want {
				t.Fatalf("step %d: Remove(%d) = %v, want %v", step, p, got, want)
			}
			delete(model, p)
		case 2:
			if rng.Intn(300) == 0 {
				f.Reset()
				model = map[core.PageID]bool{}
			}
		}
		if f.Contains(p) != model[p] {
			t.Fatalf("step %d: Contains(%d) mismatch", step, p)
		}
		if f.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, f.Len(), len(model))
		}
	}
}
