package cache

import (
	"container/list"

	"mcpaging/internal/core"
)

// Clock implements the second-chance (CLOCK) approximation of LRU: pages
// sit on a circular list with a reference bit; the hand sweeps, clearing
// set bits, and evicts the first page whose bit is already clear.
type Clock struct {
	ring *list.List // circular order; hand points at the next candidate
	hand *list.Element
	pos  map[core.PageID]*list.Element
	ref  map[core.PageID]bool
}

// NewClock returns an empty CLOCK policy.
func NewClock() *Clock {
	return &Clock{
		ring: list.New(),
		pos:  make(map[core.PageID]*list.Element),
		ref:  make(map[core.PageID]bool),
	}
}

// Name implements Policy.
func (c *Clock) Name() string { return "CLOCK" }

// Insert implements Policy. New pages enter behind the hand with their
// reference bit set.
func (c *Clock) Insert(p core.PageID, _ Access) {
	if _, ok := c.pos[p]; ok {
		panic("cache: duplicate insert of page in CLOCK domain")
	}
	var e *list.Element
	if c.hand == nil {
		e = c.ring.PushBack(p)
		c.hand = e
	} else {
		e = c.ring.InsertBefore(p, c.hand)
	}
	c.pos[p] = e
	c.ref[p] = true
}

// Touch implements Policy: it sets the reference bit.
func (c *Clock) Touch(p core.PageID, _ Access) {
	if _, ok := c.pos[p]; ok {
		c.ref[p] = true
	}
}

// advance moves the hand one step around the ring.
func (c *Clock) advance() {
	if c.hand == nil {
		return
	}
	next := c.hand.Next()
	if next == nil {
		next = c.ring.Front()
	}
	c.hand = next
}

// Evict implements Policy. The sweep clears reference bits of evictable
// pages it passes; non-evictable pages are skipped without clearing so an
// in-flight page is not penalised for being unremovable. The sweep is
// bounded by two full revolutions, which suffices because every evictable
// page's bit has been cleared after one revolution.
func (c *Clock) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	n := c.ring.Len()
	if n == 0 {
		return core.NoPage, false
	}
	for sweep := 0; sweep < 2*n; sweep++ {
		e := c.hand
		p := e.Value.(core.PageID)
		if evictable != nil && !evictable(p) {
			c.advance()
			continue
		}
		if c.ref[p] {
			c.ref[p] = false
			c.advance()
			continue
		}
		c.advance()
		if c.hand == e { // single-element ring
			c.hand = nil
		}
		c.ring.Remove(e)
		delete(c.pos, p)
		delete(c.ref, p)
		return p, true
	}
	return core.NoPage, false
}

// Remove implements Policy.
func (c *Clock) Remove(p core.PageID) bool {
	e, ok := c.pos[p]
	if !ok {
		return false
	}
	if c.hand == e {
		c.advance()
		if c.hand == e {
			c.hand = nil
		}
	}
	c.ring.Remove(e)
	delete(c.pos, p)
	delete(c.ref, p)
	return true
}

// Contains implements Policy.
func (c *Clock) Contains(p core.PageID) bool {
	_, ok := c.pos[p]
	return ok
}

// Len implements Policy.
func (c *Clock) Len() int { return c.ring.Len() }

// Reset implements Policy.
func (c *Clock) Reset() {
	c.ring.Init()
	c.hand = nil
	c.pos = make(map[core.PageID]*list.Element)
	c.ref = make(map[core.PageID]bool)
}

// Resize implements Policy: CLOCK's victim choice is capacity-independent.
func (c *Clock) Resize(int) {}
