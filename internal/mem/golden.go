package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"

	"saferatt/internal/sim"
)

// Golden is an immutable, shareable memory image: the common software
// load a fleet of identical devices is provisioned from. Any number of
// copy-on-write Memories (NewShared) read through one Golden
// concurrently; a device pays private bytes only for blocks it mutates.
//
// Immutability is the whole contract — nothing may write g.data after
// construction. NewGolden copies its input to make that easy to honor.
type Golden struct {
	data      []byte
	blockSize int
	nblocks   int
	romBlocks int

	attachOnce sync.Once
	attached   any // see Attached
}

// Attached returns the value a layer above mem keeps on g, building it
// with mk on the first call. inccache keeps its digest caches here:
// state derived from an immutable image belongs to the image and is
// collected with it, where a process-wide table keyed by the golden
// would keep every golden it ever saw. mem never reads the value.
func (g *Golden) Attached(mk func() any) any {
	g.attachOnce.Do(func() { g.attached = mk() })
	return g.attached
}

// NewGolden builds a golden image from data (copied). It panics on a
// malformed geometry, like New: image layouts are experiment code, not
// input.
func NewGolden(data []byte, blockSize, romBlocks int) *Golden {
	return newGolden(append([]byte(nil), data...), blockSize, romBlocks)
}

// newGolden validates the geometry and adopts data without a copy; the
// caller must hold no other reference to it.
func newGolden(data []byte, blockSize, romBlocks int) *Golden {
	if blockSize <= 0 {
		panic("mem: BlockSize must be positive")
	}
	if len(data) == 0 || len(data)%blockSize != 0 {
		panic(fmt.Sprintf("mem: image of %d bytes is not a positive multiple of block size %d", len(data), blockSize))
	}
	n := len(data) / blockSize
	if romBlocks < 0 || romBlocks > n {
		panic("mem: ROMBlocks out of range")
	}
	return &Golden{data: data, blockSize: blockSize, nblocks: n, romBlocks: romBlocks}
}

// RandomGolden builds a golden image with deterministic pseudorandom
// non-ROM content — the fleet-provisioning analogue of
// (*Memory).FillRandom, drawing in the same order so a shared image
// equals a per-device fill with the same seed.
func RandomGolden(size, blockSize, romBlocks int, rng *rand.Rand) *Golden {
	g := zeroGolden(size, blockSize, romBlocks)
	fillRandom(g.data[romBlocks*blockSize:], rng)
	return g
}

// zeroGolden builds an all-zero golden image of the given layout.
func zeroGolden(size, blockSize, romBlocks int) *Golden {
	if size < 0 {
		panic(fmt.Sprintf("mem: image of %d bytes", size))
	}
	return newGolden(make([]byte, size), blockSize, romBlocks)
}

// fillRandom fills buf from rng: one Uint64 per 8 bytes, then one
// Uint32 per tail byte. Per-byte generator calls used to dominate world
// construction in Monte Carlo profiles.
func fillRandom(buf []byte, rng *rand.Rand) {
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], rng.Uint64())
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(rng.Uint32())
	}
}

// Size returns the image's total byte size.
func (g *Golden) Size() int { return len(g.data) }

// BlockSize returns the block granularity in bytes.
func (g *Golden) BlockSize() int { return g.blockSize }

// NumBlocks returns the number of blocks.
func (g *Golden) NumBlocks() int { return g.nblocks }

// Block returns a read-only view of golden block i. Callers must not
// mutate the returned slice.
func (g *Golden) Block(i int) []byte {
	if i < 0 || i >= g.nblocks {
		panic(fmt.Sprintf("mem: golden block %d out of range [0,%d)", i, g.nblocks))
	}
	return g.data[i*g.blockSize : (i+1)*g.blockSize]
}

// Bytes returns a read-only view of the full image — the verifier-side
// reference for every device sharing this golden. Callers must not
// mutate it; copy first if a private image is needed.
func (g *Golden) Bytes() []byte { return g.data }

// DiffBlocks returns the indices of blocks whose content differs from
// old — the OTA delta between two firmware versions. A nil old, or an
// old with a different geometry, diffs against nothing: every block is
// returned (the update is a full reflash).
func (g *Golden) DiffBlocks(old *Golden) []int {
	if old == nil || old.blockSize != g.blockSize || old.nblocks != g.nblocks {
		all := make([]int, g.nblocks)
		for i := range all {
			all[i] = i
		}
		return all
	}
	var diff []int
	for i := 0; i < g.nblocks; i++ {
		if !bytes.Equal(g.Block(i), old.Block(i)) {
			diff = append(diff, i)
		}
	}
	return diff
}

// SharedConfig parameterizes a copy-on-write Memory: a Config whose
// layout comes from the Golden, so Size, BlockSize and ROMBlocks stay
// zero. Clock and LogWrites mean what they mean for New.
type SharedConfig = Config

// NewShared builds a copy-on-write Memory over g: reads serve golden
// content until a block is first written, at which point (and only
// then) the block gets a private copy. The bookkeeping arrays are lazy
// too, so a clean device costs one struct — a 10k-device fleet
// provisions in O(fleet) structs plus one shared image. Generation
// counters start at zero and bump on every mutation, so per-device
// digest caches keep their invalidation contract.
func NewShared(g *Golden, cfg SharedConfig) *Memory {
	if g == nil {
		panic("mem: NewShared with nil Golden")
	}
	if cfg.Size != 0 || cfg.BlockSize != 0 || cfg.ROMBlocks != 0 {
		panic("mem: NewShared takes its layout from the Golden; leave Size, BlockSize and ROMBlocks zero")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = func() sim.Time { return 0 }
	}
	return &Memory{golden: g, logOn: cfg.LogWrites, clock: clock}
}
