// Package suite provides the measurement-function toolbox used by the
// attestation mechanisms: the hash functions and signature schemes the
// paper benchmarks in Figure 2, behind small uniform interfaces.
//
// A measurement (the paper's integrity-ensuring function F, §2.4) is
// either a MAC — HMAC over a hash, or BLAKE2's native keyed mode — or a
// digital signature via hash-and-sign. Both are exposed as a Tagger:
// write the attested bytes, then Tag.
package suite

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"fmt"
	"hash"
	"io"
	"sort"

	"saferatt/internal/blake2"
	"saferatt/internal/cmac"
)

// HashID names a supported hash function.
type HashID string

// The hash functions of the paper's Figure 2, plus the encryption-based
// MAC option of §2.4 (AES-CMAC has no unkeyed hash mode, so HashIDs
// does not list it).
const (
	SHA256  HashID = "SHA-256"
	SHA512  HashID = "SHA-512"
	BLAKE2b HashID = "BLAKE2b"
	BLAKE2s HashID = "BLAKE2s"
	AESCMAC HashID = "AES-CMAC"
)

// HashIDs returns all supported unkeyed-hash identifiers in stable
// order.
func HashIDs() []HashID {
	ids := []HashID{SHA256, SHA512, BLAKE2b, BLAKE2s}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// NewHash returns a fresh unkeyed hash for id.
func NewHash(id HashID) (hash.Hash, error) {
	switch id {
	case SHA256:
		return sha256.New(), nil
	case SHA512:
		return sha512.New(), nil
	case BLAKE2b:
		return blake2.New512(), nil
	case BLAKE2s:
		return blake2.New256(), nil
	default:
		return nil, fmt.Errorf("suite: unknown hash %q", id)
	}
}

// NewMAC returns a keyed MAC based on id: HMAC for the SHA-2 family,
// BLAKE2's native keyed mode for BLAKE2 (its designed MAC construction,
// cheaper than HMAC on embedded targets).
func NewMAC(id HashID, key []byte) (hash.Hash, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("suite: empty MAC key")
	}
	switch id {
	case SHA256:
		return hmac.New(sha256.New, key), nil
	case SHA512:
		return hmac.New(sha512.New, key), nil
	case BLAKE2b:
		if len(key) > blake2.MaxKeyB {
			return nil, fmt.Errorf("suite: BLAKE2b key too long: %d", len(key))
		}
		return blake2.NewB(blake2.MaxSizeB, key)
	case BLAKE2s:
		if len(key) > blake2.MaxKeyS {
			return nil, fmt.Errorf("suite: BLAKE2s key too long: %d", len(key))
		}
		return blake2.NewS(blake2.MaxSizeS, key)
	case AESCMAC:
		return cmac.New(key)
	default:
		return nil, fmt.Errorf("suite: unknown hash %q", id)
	}
}

// Tagger accumulates attested bytes and produces an authentication tag.
type Tagger interface {
	io.Writer
	// Tag finalizes and returns the measurement tag (MAC or signature).
	Tag() ([]byte, error)
}

// Scheme describes how a measurement tag is produced and checked.
// Exactly one of Key (MAC mode) or Signer (hash-and-sign mode) must be
// set.
type Scheme struct {
	Hash   HashID
	Key    []byte // symmetric attestation key (MAC mode)
	Signer Signer // asymmetric signer (signature mode)
}

// Validate reports whether the scheme is well formed. AES-CMAC is a
// keyed-only primitive: valid in MAC mode, invalid for hash-and-sign.
// It is allocation-free on the common paths (it runs per measurement).
func (s Scheme) Validate() error {
	if (len(s.Key) == 0) == (s.Signer == nil) {
		return fmt.Errorf("suite: scheme must set exactly one of Key or Signer")
	}
	if s.Signer == nil && s.Hash == AESCMAC {
		if n := len(s.Key); n != 16 && n != 24 && n != 32 {
			_, err := cmac.New(s.Key)
			return err
		}
		return nil
	}
	switch s.Hash {
	case SHA256, SHA512, BLAKE2b, BLAKE2s:
		return nil
	default:
		return fmt.Errorf("suite: unknown hash %q", s.Hash)
	}
}

// Name returns a human-readable scheme name, e.g. "HMAC-SHA-256" or
// "SHA-256+RSA-2048". Every report carries it, so the MAC forms are
// constants; only the signer form is built.
func (s Scheme) Name() string {
	if s.Signer != nil {
		return string(s.Hash) + "+" + s.Signer.Name()
	}
	switch s.Hash {
	case SHA256:
		return "HMAC-SHA-256"
	case SHA512:
		return "HMAC-SHA-512"
	case BLAKE2b:
		return "keyed-BLAKE2b"
	case BLAKE2s:
		return "keyed-BLAKE2s"
	case AESCMAC:
		return string(AESCMAC)
	default:
		return "HMAC-" + string(s.Hash)
	}
}

type macTagger struct{ h hash.Hash }

func (t *macTagger) Write(p []byte) (int, error) { return t.h.Write(p) }
func (t *macTagger) Tag() ([]byte, error)        { return t.h.Sum(nil), nil }

type signTagger struct {
	h      hash.Hash
	signer Signer
}

func (t *signTagger) Write(p []byte) (int, error) { return t.h.Write(p) }
func (t *signTagger) Tag() ([]byte, error)        { return t.signer.Sign(t.h.Sum(nil)) }
