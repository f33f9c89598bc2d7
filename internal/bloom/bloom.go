// Package bloom implements the Bloom filters SmartStore embeds in its
// storage and index units to answer filename point queries (paper
// §3.3.3, Fig. 4).
//
// Following the prototype configuration of §5.1, the default filter is
// 1024 bits with k=7 hash functions, and hashing is MD5-based: the key's
// 128-bit MD5 digest is split into four 32-bit words, from which the k
// probe positions are derived with the standard double-hashing scheme
// g_i(x) = h1(x) + i·h2(x). Index-unit filters are the bitwise union of
// their children's filters, so a positive at an index unit means "some
// descendant may hold the name".
package bloom

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Default parameters from the prototype configuration in §5.1.
const (
	DefaultBits   = 1024
	DefaultHashes = 7
)

// Filter is a Bloom filter for string membership.
type Filter struct {
	bits  []uint64
	nbits uint32
	k     int
}

// New returns a filter with nbits bits and k hash functions.
// It panics if nbits or k is not positive.
func New(nbits, k int) *Filter {
	if nbits <= 0 || k <= 0 {
		panic(fmt.Sprintf("bloom: invalid parameters nbits=%d k=%d", nbits, k))
	}
	return &Filter{
		bits:  make([]uint64, (nbits+63)/64),
		nbits: uint32(nbits),
		k:     k,
	}
}

// NewDefault returns a 1024-bit, k=7 filter — the paper's configuration.
func NewDefault() *Filter { return New(DefaultBits, DefaultHashes) }

// hashPair derives the double-hashing basis (h1, h2) from the MD5 digest
// of key: the digest's four 32-bit words w0..w3 give h1 = w0⊕w2 and
// h2 = w1⊕w3 (forced odd so all probe strides hit distinct bits).
func (f *Filter) hashPair(key string) (uint32, uint32) {
	sum := md5.Sum([]byte(key))
	w0 := binary.LittleEndian.Uint32(sum[0:4])
	w1 := binary.LittleEndian.Uint32(sum[4:8])
	w2 := binary.LittleEndian.Uint32(sum[8:12])
	w3 := binary.LittleEndian.Uint32(sum[12:16])
	h1 := w0 ^ w2
	h2 := (w1 ^ w3) | 1
	return h1, h2
}

// Add inserts key into the filter.
func (f *Filter) Add(key string) {
	h1, h2 := f.hashPair(key)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint32(i)*h2) % f.nbits
		f.bits[pos/64] |= 1 << (pos % 64)
	}
}

// Contains reports whether key may be in the set. False positives occur
// with probability ≈ (1-e^{-kn/m})^k; false negatives never occur for
// keys actually added.
func (f *Filter) Contains(key string) bool {
	h1, h2 := f.hashPair(key)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint32(i)*h2) % f.nbits
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Union ORs other into f in place (the index-unit construction of Fig. 4).
// It panics if the filters' geometries differ.
func (f *Filter) Union(other *Filter) {
	if f.nbits != other.nbits || f.k != other.k {
		panic(fmt.Sprintf("bloom: union of incompatible filters (%d/%d vs %d/%d)",
			f.nbits, f.k, other.nbits, other.k))
	}
	for i := range f.bits {
		f.bits[i] |= other.bits[i]
	}
}

// Clone returns a deep copy of f.
func (f *Filter) Clone() *Filter {
	b := make([]uint64, len(f.bits))
	copy(b, f.bits)
	return &Filter{bits: b, nbits: f.nbits, k: f.k}
}

// Reset clears all bits.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
}

// Bits returns the filter size in bits.
func (f *Filter) Bits() int { return int(f.nbits) }

// PopCount returns the number of set bits.
func (f *Filter) PopCount() int {
	n := 0
	for _, w := range f.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// FillRatio returns the fraction of set bits.
func (f *Filter) FillRatio() float64 {
	return float64(f.PopCount()) / float64(f.nbits)
}

// EstimatedFalsePositiveRate returns the analytic false-positive rate for
// the current fill: fill^k (each of the k probes hits a set bit
// independently with probability ≈ fill ratio).
func (f *Filter) EstimatedFalsePositiveRate() float64 {
	return math.Pow(f.FillRatio(), float64(f.k))
}

// SizeBytes returns the in-memory size of the bit array, used by the
// space-overhead accounting of Fig. 7.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }
