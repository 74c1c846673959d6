package ingest

import "sync"

// decodeAlloc amortizes a wire decoder's per-summary allocations across
// a whole batch; the JSON-lines and binary decoders share it, so both
// wires intern and carve the same way. Key strings are interned through
// a pooled, size-capped table — real batches repeat a handful of
// device/group/scenario keys, so after the first sighting a key decodes
// without allocating, while hostile high-cardinality input simply
// bypasses the full table rather than growing it. RTT slices are carved
// from shared blocks; a block is never handed out twice and the decoded
// summaries retain it (only the allocation *count* is amortized, not
// the memory), so pooling the decodeAlloc never aliases live summaries.
// Every string and slice it returns is a copy: nothing a decoder builds
// through it points into the decoder's read buffers.
type decodeAlloc struct {
	intern map[string]string
	arena  []int64 // spare capacity of the current RTT block
}

// maxInternedKeys bounds the pooled intern table; past it, unseen keys
// just allocate (the cap only exists so hostile key cardinality cannot
// grow the table without bound across pooled reuses).
const maxInternedKeys = 1024

var decodeAllocPool = sync.Pool{
	New: func() any { return &decodeAlloc{intern: make(map[string]string, 64)} },
}

// str interns a decoded key field. Strings longer than any valid key
// are copied but never interned — the record carrying one fails
// Validate, and the pooled table must not pin it.
func (a *decodeAlloc) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := a.intern[string(b)]; ok { // keyed lookup does not allocate
		return s
	}
	s := string(b)
	if len(a.intern) < maxInternedKeys && len(b) <= maxKeyLen {
		a.intern[s] = s
	}
	return s
}

// int64s carves an exactly-sized slice out of the current block,
// minting a new block when the remainder is short.
func (a *decodeAlloc) int64s(n int) []int64 {
	if n > len(a.arena) {
		size := 4096
		if n > size {
			size = n
		}
		a.arena = make([]int64, size)
	}
	out := a.arena[:n:n]
	a.arena = a.arena[n:]
	return out
}
