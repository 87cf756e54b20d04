// Package fnv is the repo's shared FNV-1a 64-bit hashing idiom: a
// value-type, allocation-free, chainable hasher used wherever a
// deterministic content fingerprint is needed — the campaign
// result-cache's canonical config encoding (internal/campaign).
//
// The standard library's hash/fnv forces a heap allocation and a
// []byte round trip per write; this package folds words directly:
//
//	h := fnv.New().Str("topo").U64(3).F64(0.5)
//	fp := h.Sum()
//
// Every input is folded byte-for-byte in a fixed order, so a sum is a
// pure function of the written sequence — stable across processes,
// platforms, and Go versions.
package fnv

import "math"

// Offset64 and Prime64 are the FNV-1a 64-bit constants.
const (
	Offset64 = 14695981039346656037
	Prime64  = 1099511628211
)

// Hash is an in-progress FNV-1a 64-bit hash. The zero value is NOT a
// valid initial state; start from New.
type Hash uint64

// New returns the FNV-1a initial state.
func New() Hash { return Offset64 }

// Sum returns the current hash value.
func (h Hash) Sum() uint64 { return uint64(h) }

// Byte folds one byte.
func (h Hash) Byte(b byte) Hash {
	return (h ^ Hash(b)) * Prime64
}

// U64 folds a uint64, little-endian byte order.
func (h Hash) U64(v uint64) Hash {
	for i := 0; i < 8; i++ {
		h = h.Byte(byte(v >> (8 * i)))
	}
	return h
}

// I64 folds an int64 via its two's-complement bit pattern.
func (h Hash) I64(v int64) Hash { return h.U64(uint64(v)) }

// Int folds an int.
func (h Hash) Int(v int) Hash { return h.I64(int64(v)) }

// F64 folds a float64 via its IEEE-754 bit pattern. NaNs are
// canonicalized so equal-comparing values hash equally.
func (h Hash) F64(v float64) Hash {
	if v != v {
		return h.U64(math.Float64bits(math.NaN()))
	}
	return h.U64(math.Float64bits(v))
}

// Bool folds a boolean as one byte.
func (h Hash) Bool(v bool) Hash {
	if v {
		return h.Byte(1)
	}
	return h.Byte(0)
}

// Str folds a string's bytes, prefixed with its length so that
// consecutive strings cannot alias ("ab","c" vs "a","bc").
func (h Hash) Str(s string) Hash {
	h = h.Int(len(s))
	for i := 0; i < len(s); i++ {
		h = h.Byte(s[i])
	}
	return h
}

// Bytes folds a byte slice, length-prefixed like Str.
func (h Hash) Bytes(b []byte) Hash {
	h = h.Int(len(b))
	for _, c := range b {
		h = h.Byte(c)
	}
	return h
}
