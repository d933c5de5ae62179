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

// maxSeq bounds the sequence numbers a SeqSet accepts (1<<26 bits = 8 MB).
// A run's broadcasts come from one origin that numbers them densely from
// zero, so hitting the bound means a caller broke the dense-seq invariant —
// e.g. used a hash or timestamp as Seq — and the set fails loudly instead
// of growing toward OOM.
const maxSeq = 1 << 26

// SeqSet is the first-sight state of one run's broadcasts: a growable
// bitset over their dense sequence numbers, so a duplicate check is one
// array bit test. The zero value is an empty set.
type SeqSet struct {
	words []uint64
}

// Has reports whether seq is in the set.
func (s *SeqSet) Has(seq uint64) bool {
	w := seq / 64
	return w < uint64(len(s.words)) && s.words[w]&(1<<(seq%64)) != 0
}

// Add inserts seq and reports whether it was new (true = first sight).
// It panics when seq breaks the dense-seq invariant (seq >= 1<<26).
func (s *SeqSet) Add(seq uint64) bool {
	if s.Has(seq) {
		return false
	}
	if seq >= maxSeq {
		panic(fmt.Sprintf("core: sequence %d breaks the dense-seq invariant (max %d)", seq, maxSeq-1))
	}
	if w := int(seq / 64); w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	s.words[seq/64] |= 1 << (seq % 64)
	return true
}

// Clear empties the set for the next run, keeping its words so a reused
// set marks the next run's broadcasts without allocating.
func (s *SeqSet) Clear() { clear(s.words) }
