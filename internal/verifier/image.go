package verifier

import (
	"fmt"
	"strconv"
	"strings"

	"saferatt/internal/mem"
)

// Image is the verifier's handle on one golden reference image: the
// raw bytes plus measurement geometry, optionally backed by a
// mem.Golden so the incremental path can share the golden's per-block
// digest cache with the devices provisioned from it. It is
// a small value type — copy freely; copies share one digest cache —
// and the single image surface every verifier plugs into: the sim
// Verifier, the batch verifier, the ImageSet registry, the swarm
// collector (see expected.go for what is computed over it).
type Image struct {
	ref       []byte
	blockSize int
	numBlocks int         // len(ref)/blockSize, divided once here
	golden    *mem.Golden // nil when built from raw bytes
	dig       *digestSlot
}

// ImageOf wraps a raw golden image. The caller must not mutate ref
// afterwards. Panics on malformed geometry (image layouts are
// experiment code, not input).
func ImageOf(ref []byte, blockSize int) Image {
	if blockSize <= 0 || len(ref) == 0 || len(ref)%blockSize != 0 {
		panic(fmt.Sprintf("verifier: image of %d bytes is not a positive multiple of block size %d", len(ref), blockSize))
	}
	return Image{ref: ref, blockSize: blockSize, numBlocks: len(ref) / blockSize, dig: new(digestSlot)}
}

// ImageOfGolden wraps a shared mem.Golden, wiring the incremental
// path to the golden's digest cache — verifier and devices then share
// one set of per-block digests.
func ImageOfGolden(g *mem.Golden) Image {
	if g == nil {
		panic("verifier: ImageOfGolden with nil Golden")
	}
	return Image{ref: g.Bytes(), blockSize: g.BlockSize(), numBlocks: g.NumBlocks(), golden: g, dig: new(digestSlot)}
}

// IsZero reports whether the handle is the zero Image.
func (im Image) IsZero() bool { return im.ref == nil }

// Bytes returns a read-only view of the image content.
func (im Image) Bytes() []byte { return im.ref }

// BlockSize returns the measurement granularity in bytes.
func (im Image) BlockSize() int { return im.blockSize }

// NumBlocks returns the number of measurement blocks.
func (im Image) NumBlocks() int { return im.numBlocks }

// Golden returns the backing mem.Golden, or nil for a raw-bytes image.
func (im Image) Golden() *mem.Golden { return im.golden }

// ImageID names one version of a registered image: a short stable
// name plus a version number that Rotate bumps. Version 0 means
// "whatever version is current" — the form v1 peers and imageless
// reports resolve through. The zero ImageID addresses the registry's
// default image at its current version.
type ImageID struct {
	Name    string
	Version uint32
}

// String renders the id in wire form: "name" for the current version,
// "name@vN" for an exact version.
func (id ImageID) String() string {
	if id.Version == 0 {
		return id.Name
	}
	return id.Name + "@v" + strconv.FormatUint(uint64(id.Version), 10)
}

// ParseImageID parses the wire form accepted by String: "name"
// (current version) or "name@vN". The name substring aliases s, so
// parsing an interned string allocates nothing. Malformed version
// suffixes ("name@", "name@v", "name@vx", version 0) are errors —
// a peer that tries to speak versions must speak them correctly — and
// so is any spelling String would not produce ("name@v007"): one
// version reaches the registry under one id.
func ParseImageID(s string) (ImageID, error) {
	at := strings.LastIndexByte(s, '@')
	if at < 0 {
		return ImageID{Name: s}, nil
	}
	suffix := s[at+1:]
	if len(suffix) < 2 || suffix[0] != 'v' || suffix[1] == '0' {
		return ImageID{}, fmt.Errorf("verifier: malformed image id %q", s)
	}
	v, err := strconv.ParseUint(suffix[1:], 10, 32)
	if err != nil || v == 0 {
		return ImageID{}, fmt.Errorf("verifier: malformed image version in %q", s)
	}
	return ImageID{Name: s[:at], Version: uint32(v)}, nil
}
