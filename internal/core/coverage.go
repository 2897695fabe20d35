package core

import (
	"fmt"

	"saferatt/internal/inccache"
)

// DataPolicy selects how high-entropy mutable regions D are treated
// during measurement (§2.3, M = [C, D]).
//
// With DataIncluded (the default), D is hashed like code: any benign
// mutation breaks the tag, so it only suits low-entropy or immutable
// memories. DataZeroed wipes D before MP — "this makes it impossible
// for malware to hide in such regions, and obviates the need for Prv to
// send Vrf an explicit copy of D". DataReported hashes D as-is and
// attaches a verbatim copy to the report, so Vrf can validate C against
// the golden image and inspect D explicitly — "this only makes sense if
// |D| is small".
type DataPolicy int

// Data policies.
const (
	DataIncluded DataPolicy = iota
	DataZeroed
	DataReported
)

func (p DataPolicy) String() string {
	switch p {
	case DataIncluded:
		return "included"
	case DataZeroed:
		return "zeroed"
	case DataReported:
		return "reported"
	default:
		return fmt.Sprintf("DataPolicy(%d)", int(p))
	}
}

// DataRegion configures the D region of a measurement.
type DataRegion struct {
	// Blocks lists the block indices forming D.
	Blocks []int
	// Policy selects the treatment.
	Policy DataPolicy
}

// set returns Blocks as a membership set.
func (d DataRegion) set() map[int]bool {
	if len(d.Blocks) == 0 {
		return nil
	}
	s := make(map[int]bool, len(d.Blocks))
	for _, b := range d.Blocks {
		s[b] = true
	}
	return s
}

// validate checks the region against a memory geometry.
func (d DataRegion) validate(numBlocks, romBlocks int) error {
	seen := map[int]bool{}
	for _, b := range d.Blocks {
		if b < 0 || b >= numBlocks {
			return fmt.Errorf("core: data block %d out of range [0,%d)", b, numBlocks)
		}
		if b < romBlocks {
			return fmt.Errorf("core: data block %d lies in ROM", b)
		}
		if seen[b] {
			return fmt.Errorf("core: duplicate data block %d", b)
		}
		seen[b] = true
	}
	return nil
}

// EffectiveReference builds the memory image the verifier should expect
// for a report measured under the given data region: the golden image
// with D blocks replaced according to the policy (zeros, or the
// report's attached copies).
func EffectiveReference(ref []byte, blockSize int, region DataRegion, reported map[int][]byte) ([]byte, error) {
	if len(region.Blocks) == 0 || region.Policy == DataIncluded {
		return ref, nil
	}
	eff := append([]byte(nil), ref...)
	for _, b := range region.Blocks {
		dst := eff[b*blockSize : (b+1)*blockSize]
		switch region.Policy {
		case DataZeroed:
			for i := range dst {
				dst[i] = 0
			}
		case DataReported:
			data, ok := reported[b]
			if !ok {
				return nil, fmt.Errorf("core: report carries no copy of data block %d", b)
			}
			if len(data) != blockSize {
				return nil, fmt.Errorf("core: reported data block %d has %d bytes, want %d", b, len(data), blockSize)
			}
			copy(dst, data)
		}
	}
	return eff, nil
}

// EffectiveDigests is EffectiveReference for the incremental path: it
// returns a per-block digest lookup over a golden image cache, with D
// blocks overridden according to the policy (the cached zero-block
// digest, or digests of the report's attached copies). Validation of
// reported copies happens eagerly, mirroring EffectiveReference's
// errors, so a malformed report is rejected identically on both paths.
func EffectiveDigests(golden *inccache.ImageCache, region DataRegion, reported map[int][]byte) (func(b int) ([]byte, error), error) {
	if len(region.Blocks) == 0 || region.Policy == DataIncluded {
		return golden.DigestOK, nil
	}
	override := make(map[int][]byte, len(region.Blocks))
	for _, b := range region.Blocks {
		switch region.Policy {
		case DataZeroed:
			override[b] = inccache.ZeroDigest(golden.Hash(), golden.BlockSize())
		case DataReported:
			data, ok := reported[b]
			if !ok {
				return nil, fmt.Errorf("core: report carries no copy of data block %d", b)
			}
			if len(data) != golden.BlockSize() {
				return nil, fmt.Errorf("core: reported data block %d has %d bytes, want %d", b, len(data), golden.BlockSize())
			}
			override[b] = inccache.DigestOf(golden.Hash(), data, nil)
		}
	}
	return func(b int) ([]byte, error) {
		if d, ok := override[b]; ok {
			return d, nil
		}
		return golden.Digest(b), nil
	}, nil
}
