package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"strings"

	"mcpaging/internal/core"
)

// JobKey computes the content-addressed cache key of one simulation
// job: a SHA-256 over a canonical encoding of (request set, strategy
// spec, K, τ, capacity schedule, seed). The request set is hashed by
// content, so the same instance reaches the same key whether it arrived
// inline, as a binary trace, or as a deterministic workload spec. The
// spec is trimmed the same way strategyspec.Build trims it; seed is
// always included because it changes the behaviour of randomized
// policies (for deterministic policies two seeds simply occupy two
// cache entries). The capacity schedule is hashed by its canonical
// resolved form (Schedule.Canonical — the breakpoint list or wave
// parameters, empty for fixed-capacity jobs), never by the spec
// string: two spellings of the same K(t) share an entry, and a
// schedule whose spec alone does not determine K(t) (trace reads a
// file) can never alias a key onto a different simulation. The domain
// label is v3 — v2 hashed the raw spec string; switching to the
// canonical encoding re-keyed every elastic job, and the bump makes
// the old and new key spaces disjoint rather than silently aliased.
//
// The key is exported because it is also the fleet's routing key:
// mcfleet consistent-hashes it onto the worker ring, so a job lands on
// the worker whose result cache is most likely to already hold it —
// the per-worker caches compose into one logical distributed cache.
//
// The byte stream is appended into a fixed block that is hashed whole
// blocks at a time; the stream, and so every key, is the same as
// hashing it a varint at a time.
func JobKey(rs core.RequestSet, spec string, p core.Params, seed int64) string {
	w := &keyWriter{h: sha256.New(), blk: make([]byte, keyBlock)}
	w.write([]byte("mcservd/job/v3\x00"))
	w.varint(int64(p.K))
	w.varint(int64(p.Tau))
	var capEnc []byte
	if p.Capacity != nil {
		capEnc = p.Capacity.Canonical()
	}
	w.uvarint(uint64(len(capEnc)))
	w.write(capEnc)
	w.varint(seed)
	spec = strings.TrimSpace(spec)
	w.uvarint(uint64(len(spec)))
	w.write([]byte(spec))
	w.uvarint(uint64(len(rs)))
	for _, seq := range rs {
		w.uvarint(uint64(len(seq)))
		for _, pg := range seq {
			if w.n > keyBlock-binary.MaxVarintLen64 {
				w.flush()
			}
			w.n += binary.PutVarint(w.blk[w.n:], int64(pg))
		}
	}
	w.flush()
	return hex.EncodeToString(w.h.Sum(nil))
}

// keyBlock is the size of the block JobKey hashes at a time.
const keyBlock = 32 << 10

// keyWriter buffers JobKey's byte stream into a block for the hash.
type keyWriter struct {
	h   hash.Hash
	n   int // bytes buffered in blk
	blk []byte
}

func (w *keyWriter) flush() {
	w.h.Write(w.blk[:w.n])
	w.n = 0
}

func (w *keyWriter) write(b []byte) {
	w.flush()
	w.h.Write(b)
}

func (w *keyWriter) uvarint(v uint64) {
	if w.n > keyBlock-binary.MaxVarintLen64 {
		w.flush()
	}
	w.n += binary.PutUvarint(w.blk[w.n:], v)
}

func (w *keyWriter) varint(v int64) {
	if w.n > keyBlock-binary.MaxVarintLen64 {
		w.flush()
	}
	w.n += binary.PutVarint(w.blk[w.n:], v)
}
