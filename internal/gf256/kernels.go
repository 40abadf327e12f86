package gf256

import (
	"encoding/binary"
	//lint:allow obsregistry(lazy one-time table initialization below the sim layer; not a metrics counter)
	"sync/atomic"
)

// This file holds the word-wise slice kernels: the hot inner loops of
// encoding and of the incremental parity-delta updates (Equations (2)–(5)).
// Three table layers back them:
//
//	mulLo/mulHi — 4-bit nibble-split tables, 16 entries per scalar (8 KiB
//	              total for all 256 scalars). mulLo[c][v] = c*v and
//	              mulHi[c][v] = c*(v<<4), so c*b = mulLo[c][b&15] ^
//	              mulHi[c][b>>4]. Built at init from first principles
//	              (carry-less shift-and-reduce), independent of the log/exp
//	              tables. They are the compact per-scalar form used for head
//	              and tail bytes and to populate the double-byte tables.
//	mulTable    — the full 64 KiB product table (gf256.go); single-lookup
//	              scalar Mul.
//	row16       — per-scalar double-byte tables, built lazily on a scalar's
//	              first slice use and cached: row16[c][a<<8|b] holds the two
//	              products (c*a)<<8 | c*b, so one lookup maps two source
//	              bytes to two product bytes. The word kernels do four such
//	              lookups per 8-byte word, which is what makes them beat the
//	              byte-at-a-time reference by >2x on large buffers.
//
// All kernels process 8 bytes per step through unaligned little-endian
// uint64 loads/stores and fall back to byte steps for the tail, so any
// length and any sub-word offset is handled.

var (
	mulLo [256][16]byte
	mulHi [256][16]byte
	// row16cache[c] is the lazily built double-byte product table for
	// scalar c. Lookup and publication are atomic so kernel calls from
	// concurrent goroutines (parallel tests, independent simulations in one
	// process) may race on first use; a duplicate build is idempotent and
	// only wastes the loser's work.
	row16cache [256]atomic.Pointer[[65536]uint16]
)

// mulNoTable multiplies in GF(2^8) by shift-and-reduce, without any table.
// Used only to seed the nibble tables at init (and by tests as an oracle
// independent of every table).
func mulNoTable(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= byte(Polynomial & 0xff)
		}
		b >>= 1
	}
	return p
}

func init() {
	for c := 0; c < 256; c++ {
		for v := 0; v < 16; v++ {
			mulLo[c][v] = mulNoTable(byte(c), byte(v))
			mulHi[c][v] = mulNoTable(byte(c), byte(v<<4))
		}
	}
}

// row16For returns scalar c's double-byte product table, building and
// caching it on first use. Each entry packs two independent products:
// entry[a<<8|b] = (c*a)<<8 | (c*b).
func row16For(c byte) *[65536]uint16 {
	if t := row16cache[c].Load(); t != nil {
		return t
	}
	lo, hi := &mulLo[c], &mulHi[c]
	var prod [256]byte
	for b := 0; b < 256; b++ {
		prod[b] = lo[b&15] ^ hi[b>>4]
	}
	t := new([65536]uint16)
	for a := 0; a < 256; a++ {
		pa := uint16(prod[a]) << 8
		row := t[a<<8 : a<<8+256]
		for b := 0; b < 256; b++ {
			row[b] = pa | uint16(prod[b])
		}
	}
	row16cache[c].Store(t)
	return t
}

// wordMin is the slice length below which the word kernels stay on the
// nibble-table byte path: too short to amortize a (possibly cold) 128 KiB
// double-byte table.
const wordMin = 64

// MulSlice sets dst[i] = c * src[i]. dst and src must have equal length;
// they may alias.
func MulSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
		return
	case 1:
		copy(dst, src)
		return
	}
	if hasAVX2 && len(src) >= 32 {
		n32 := len(src) &^ 31
		mulAVX2(&mulLo[c], &mulHi[c], &dst[0], &src[0], uint64(n32))
		dst, src = dst[n32:], src[n32:]
	}
	mulSliceWord(c, dst, src)
}

// mulSliceWord is the portable uint64-word path of MulSlice (also the tail
// path after the vector prefix).
func mulSliceWord(c byte, dst, src []byte) {
	n := len(src)
	i := 0
	if n >= wordMin {
		t := row16For(c)
		for ; i+8 <= n; i += 8 {
			s := binary.LittleEndian.Uint64(src[i:])
			w := uint64(t[uint16(s)]) |
				uint64(t[uint16(s>>16)])<<16 |
				uint64(t[uint16(s>>32)])<<32 |
				uint64(t[uint16(s>>48)])<<48
			binary.LittleEndian.PutUint64(dst[i:], w)
		}
	}
	lo, hi := &mulLo[c], &mulHi[c]
	for ; i < n; i++ {
		b := src[i]
		dst[i] = lo[b&15] ^ hi[b>>4]
	}
}

// MulXorSlice sets dst[i] ^= c * src[i]. This is the fused kernel of the
// parity-delta update P' = P + coef*(Dnew-Dold). dst and src must have
// equal length.
func MulXorSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulXorSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		XorSlice(dst, src)
		return
	}
	if hasAVX2 && len(src) >= 32 {
		n32 := len(src) &^ 31
		mulXorAVX2(&mulLo[c], &mulHi[c], &dst[0], &src[0], uint64(n32))
		dst, src = dst[n32:], src[n32:]
	}
	mulXorSliceWord(c, dst, src)
}

// mulXorSliceWord is the portable uint64-word path of MulXorSlice.
func mulXorSliceWord(c byte, dst, src []byte) {
	n := len(src)
	i := 0
	if n >= wordMin {
		t := row16For(c)
		for ; i+8 <= n; i += 8 {
			s := binary.LittleEndian.Uint64(src[i:])
			w := uint64(t[uint16(s)]) |
				uint64(t[uint16(s>>16)])<<16 |
				uint64(t[uint16(s>>32)])<<32 |
				uint64(t[uint16(s>>48)])<<48
			binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^w)
		}
	}
	lo, hi := &mulLo[c], &mulHi[c]
	for ; i < n; i++ {
		b := src[i]
		dst[i] ^= lo[b&15] ^ hi[b>>4]
	}
}

// XorSlice sets dst[i] ^= src[i]. dst and src must have equal length.
func XorSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: XorSlice length mismatch")
	}
	if hasAVX2 && len(src) >= 32 {
		n32 := len(src) &^ 31
		xorAVX2(&dst[0], &src[0], uint64(n32))
		dst, src = dst[n32:], src[n32:]
	}
	xorSliceWord(dst, src)
}

// xorSliceWord is the portable uint64-word path of XorSlice.
func xorSliceWord(dst, src []byte) {
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// MulSliceRef is the scalar byte-at-a-time reference for MulSlice. The
// word-wise kernels are pinned to it by the differential test suite; it is
// also the baseline the kernel benchmarks compare against.
func MulSliceRef(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSliceRef length mismatch")
	}
	row := &mulTable[c]
	for i := range src {
		dst[i] = row[src[i]]
	}
}

// MulXorSliceRef is the scalar reference for MulXorSlice.
func MulXorSliceRef(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulXorSliceRef length mismatch")
	}
	row := &mulTable[c]
	for i := range src {
		dst[i] ^= row[src[i]]
	}
}

// XorSliceRef is the scalar reference for XorSlice.
func XorSliceRef(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: XorSliceRef length mismatch")
	}
	for i := range src {
		dst[i] ^= src[i]
	}
}
