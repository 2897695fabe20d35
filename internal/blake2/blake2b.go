// Package blake2 implements the BLAKE2b and BLAKE2s cryptographic hash
// functions of RFC 7693, including keyed (MAC) mode.
//
// The paper's Figure 2 benchmarks SHA-256, SHA-512, BLAKE2b and BLAKE2s
// as measurement functions ("the latter two are in particular well
// suited for embedded systems"). SHA-2 ships with the Go standard
// library; BLAKE2 does not, so it is implemented here from the RFC.
//
// Both variants satisfy hash.Hash and support arbitrary digest sizes up
// to their maximum (64 bytes for BLAKE2b, 32 for BLAKE2s).
package blake2

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math/bits"
)

const (
	// BlockSizeB is the BLAKE2b block size in bytes.
	BlockSizeB = 128
	// MaxSizeB is the maximum BLAKE2b digest size in bytes.
	MaxSizeB = 64
	// MaxKeyB is the maximum BLAKE2b key size in bytes.
	MaxKeyB = 64
)

var ivB = [8]uint64{
	0x6a09e667f3bcc908, 0xbb67ae8584caa73b,
	0x3c6ef372fe94f82b, 0xa54ff53a5f1d36f1,
	0x510e527fade682d1, 0x9b05688c2b3e6c1f,
	0x1f83d9abfb41bd6b, 0x5be0cd19137e2179,
}

// sigma is the message word schedule shared by BLAKE2b (rounds 10 and
// 11 reuse rows 0 and 1) and BLAKE2s.
var sigma = [10][16]byte{
	{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	{14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
	{11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
	{7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
	{9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
	{2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
	{12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
	{13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
	{6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
	{10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0},
}

type digestB struct {
	h      [8]uint64
	t      [2]uint64 // 128-bit byte counter
	x      [BlockSizeB]byte
	nx     int
	size   int
	keyLen int
	key    [BlockSizeB]byte // padded key block, retained for Reset
}

// NewB returns a BLAKE2b hash.Hash producing digests of the given size
// (1..64 bytes). If key is non-empty (up to 64 bytes), the hash runs in
// keyed MAC mode.
func NewB(size int, key []byte) (hash.Hash, error) {
	if size < 1 || size > MaxSizeB {
		return nil, fmt.Errorf("blake2: invalid BLAKE2b digest size %d", size)
	}
	if len(key) > MaxKeyB {
		return nil, fmt.Errorf("blake2: BLAKE2b key too long: %d > %d", len(key), MaxKeyB)
	}
	d := &digestB{size: size, keyLen: len(key)}
	copy(d.key[:], key)
	d.Reset()
	return d, nil
}

// New512 returns an unkeyed BLAKE2b-512 hash.
func New512() hash.Hash {
	d, err := NewB(64, nil)
	if err != nil {
		panic(err) // unreachable: parameters are valid
	}
	return d
}

// SumB is a convenience one-shot BLAKE2b.
func SumB(size int, key, data []byte) ([]byte, error) {
	d, err := NewB(size, key)
	if err != nil {
		return nil, err
	}
	d.Write(data)
	return d.Sum(nil), nil
}

func (d *digestB) Size() int      { return d.size }
func (d *digestB) BlockSize() int { return BlockSizeB }

func (d *digestB) Reset() {
	d.h = ivB
	// Parameter block word 0: digest length, key length, fanout=1,
	// depth=1 (sequential mode).
	d.h[0] ^= uint64(d.size) | uint64(d.keyLen)<<8 | 1<<16 | 1<<24
	d.t[0], d.t[1] = 0, 0
	d.nx = 0
	if d.keyLen > 0 {
		// The padded key is the first data block.
		copy(d.x[:], d.key[:])
		d.nx = BlockSizeB
	}
}

func (d *digestB) Write(p []byte) (n int, err error) {
	n = len(p)
	if d.nx > 0 {
		left := BlockSizeB - d.nx
		if len(p) > left {
			copy(d.x[d.nx:], p[:left])
			p = p[left:]
			d.compress(d.x[:], BlockSizeB, false)
			d.nx = 0
		} else {
			copy(d.x[d.nx:], p)
			d.nx += len(p)
			return n, nil
		}
	}
	// Compress all full blocks except (possibly) the last byte-aligned
	// one: the final block must be compressed with the final flag, so
	// always retain at least one byte in the buffer.
	if len(p) > BlockSizeB {
		nn := ((len(p) - 1) / BlockSizeB) * BlockSizeB
		for i := 0; i < nn; i += BlockSizeB {
			d.compress(p[i:i+BlockSizeB], BlockSizeB, false)
		}
		p = p[nn:]
	}
	copy(d.x[:], p)
	d.nx = len(p)
	return n, nil
}

func (d *digestB) Sum(b []byte) []byte {
	// Finalize a copy so the digest remains usable.
	dd := *d
	for i := dd.nx; i < BlockSizeB; i++ {
		dd.x[i] = 0
	}
	dd.compress(dd.x[:], uint64(dd.nx), true)
	var out [MaxSizeB]byte
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(out[8*i:], dd.h[i])
	}
	return append(b, out[:dd.size]...)
}

// compress absorbs one 128-byte block. inc is the number of message
// bytes the block contributes to the total counter.
func (d *digestB) compress(block []byte, inc uint64, final bool) {
	d.t[0] += inc
	if d.t[0] < inc {
		d.t[1]++
	}

	var m [16]uint64
	for i := range m {
		m[i] = binary.LittleEndian.Uint64(block[8*i:])
	}

	var v [16]uint64
	copy(v[:8], d.h[:])
	copy(v[8:], ivB[:])
	v[12] ^= d.t[0]
	v[13] ^= d.t[1]
	if final {
		v[14] = ^v[14]
	}

	for r := 0; r < 12; r++ {
		s := &sigma[r%10]
		gB(&v, 0, 4, 8, 12, m[s[0]], m[s[1]])
		gB(&v, 1, 5, 9, 13, m[s[2]], m[s[3]])
		gB(&v, 2, 6, 10, 14, m[s[4]], m[s[5]])
		gB(&v, 3, 7, 11, 15, m[s[6]], m[s[7]])
		gB(&v, 0, 5, 10, 15, m[s[8]], m[s[9]])
		gB(&v, 1, 6, 11, 12, m[s[10]], m[s[11]])
		gB(&v, 2, 7, 8, 13, m[s[12]], m[s[13]])
		gB(&v, 3, 4, 9, 14, m[s[14]], m[s[15]])
	}

	for i := 0; i < 8; i++ {
		d.h[i] ^= v[i] ^ v[i+8]
	}
}

func gB(v *[16]uint64, a, b, c, dd int, x, y uint64) {
	v[a] += v[b] + x
	v[dd] = bits.RotateLeft64(v[dd]^v[a], -32)
	v[c] += v[dd]
	v[b] = bits.RotateLeft64(v[b]^v[c], -24)
	v[a] += v[b] + y
	v[dd] = bits.RotateLeft64(v[dd]^v[a], -16)
	v[c] += v[dd]
	v[b] = bits.RotateLeft64(v[b]^v[c], -63)
}
