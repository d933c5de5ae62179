package core

import "fmt"

// PacketKey identifies a broadcast payload for duplicate suppression.
// The paper's protocols drop duplicate broadcast packets, so each broadcast
// traverses a link at most once and the dissemination forms a spanning tree.
type PacketKey struct {
	// Origin is the node that created the broadcast.
	Origin int
	// Seq is the origin-local sequence number.
	Seq uint64
}

// DuplicateFilter remembers which broadcasts a node has already handled.
// Origins assign sequence numbers densely from zero, so the filter keeps
// one growable bitset per origin: the duplicate check on the reception hot
// path is an array bit test instead of a map probe, and the single-origin
// common case (one broadcast source per scenario) skips the origin lookup
// through a one-entry cache.
//
// The zero value is not usable; construct with NewDuplicateFilter.
type DuplicateFilter struct {
	byOrigin map[int]*seqBits
	// spare holds zeroed bitsets of origins dropped by Reset, handed to the
	// next new origins so a pooled filter stops allocating once warm.
	spare []*seqBits
	// cache of the most recently used origin's bitset.
	lastOrigin int
	last       *seqBits
	count      int
}

// maxSeq bounds the sequence numbers the filter accepts (1<<26 bits = 8 MB
// of bitset per origin). Origins assign seqs densely from zero, so hitting
// the bound means a caller broke the dense-seq invariant — e.g. used a hash
// or timestamp as Seq — and the filter fails loudly instead of growing
// toward OOM.
const maxSeq = 1 << 26

// seqBits is a growable bitset over sequence numbers.
type seqBits struct {
	words []uint64
}

func (b *seqBits) has(seq uint64) bool {
	w := seq / 64
	return w < uint64(len(b.words)) && b.words[w]&(1<<(seq%64)) != 0
}

func (b *seqBits) set(seq uint64) {
	if seq >= maxSeq {
		panic(fmt.Sprintf("core: DuplicateFilter sequence %d breaks the dense-seq invariant (max %d)", seq, maxSeq-1))
	}
	w := seq / 64
	if need := int(w) + 1; need > len(b.words) {
		b.words = append(b.words, make([]uint64, need-len(b.words))...)
	}
	b.words[w] |= 1 << (seq % 64)
}

// NewDuplicateFilter returns an empty filter.
func NewDuplicateFilter() *DuplicateFilter {
	return &DuplicateFilter{byOrigin: make(map[int]*seqBits)}
}

// bits returns the origin's bitset, creating it if asked.
func (f *DuplicateFilter) bits(origin int, create bool) *seqBits {
	if f.last != nil && f.lastOrigin == origin {
		return f.last
	}
	b := f.byOrigin[origin]
	if b == nil && create {
		if n := len(f.spare); n > 0 {
			b = f.spare[n-1]
			f.spare = f.spare[:n-1]
		} else {
			b = &seqBits{}
		}
		f.byOrigin[origin] = b
	}
	if b != nil {
		f.lastOrigin, f.last = origin, b
	}
	return b
}

// Seen reports whether key was already marked.
func (f *DuplicateFilter) Seen(key PacketKey) bool {
	b := f.bits(key.Origin, false)
	return b != nil && b.has(key.Seq)
}

// MarkSeen records key and reports whether it was new (true = first sight).
func (f *DuplicateFilter) MarkSeen(key PacketKey) bool {
	b := f.bits(key.Origin, true)
	if b.has(key.Seq) {
		return false
	}
	b.set(key.Seq)
	f.count++
	return true
}

// Len returns the number of distinct broadcasts recorded.
func (f *DuplicateFilter) Len() int { return f.count }

// Reset clears the filter for reuse across simulation runs. Its cost is
// proportional to the origins marked since the last Reset, not to every
// origin the filter has ever seen: those bitsets are zeroed and moved to a
// spare list, and the next run's origins take them over. A pooled filter
// whose runs each pick a different broadcast source therefore keeps only
// one run's worth of bitsets and marks with no allocation.
func (f *DuplicateFilter) Reset() {
	for _, b := range f.byOrigin {
		clear(b.words)
		f.spare = append(f.spare, b)
	}
	clear(f.byOrigin)
	f.last = nil
	f.count = 0
}
