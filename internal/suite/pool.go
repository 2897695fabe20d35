package suite

import (
	"crypto/hmac"
	"hash"
	"io"
	"sync"
)

// Hash-state pooling. A Monte Carlo trial allocates a fresh MAC or hash
// state for every measurement round and every verification — for
// HMAC-SHA-256 that is two inner digest states plus padded key blocks,
// per block-traversal. The states are fully reusable via Reset, so they
// are pooled here, keyed by (algorithm, MAC key): a keyed state is
// bound to its key at construction and must never be handed to a
// scheme with a different key.
//
// The pool registry is a nested map under an RWMutex rather than a
// sync.Map keyed by a struct: the struct key forced a []byte→string
// allocation on every acquire/release, which made the pooled path
// slower than building fresh state for cheap schemes. The inner
// map[string] lookup with a string([]byte) conversion is recognized by
// the compiler and does not allocate.
//
// All pools are safe for concurrent use (the parallel trial engine
// acquires from many goroutines at once).

var (
	poolMu    sync.RWMutex
	hashPools = map[HashID]*sync.Pool{}
	macPools  = map[HashID]map[string]*sync.Pool{}
)

func hashPoolFor(id HashID) *sync.Pool {
	poolMu.RLock()
	p := hashPools[id]
	poolMu.RUnlock()
	if p != nil {
		return p
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if p = hashPools[id]; p == nil {
		p = &sync.Pool{}
		hashPools[id] = p
	}
	return p
}

func macPoolFor(id HashID, key []byte) *sync.Pool {
	poolMu.RLock()
	p := macPools[id][string(key)] // no-alloc map lookup
	poolMu.RUnlock()
	if p != nil {
		return p
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	inner := macPools[id]
	if inner == nil {
		inner = map[string]*sync.Pool{}
		macPools[id] = inner
	}
	if p = inner[string(key)]; p == nil {
		p = &sync.Pool{}
		inner[string(key)] = p
	}
	return p
}

// AcquireHash returns a ready-to-write unkeyed hash for id, reusing a
// pooled state when one is available. Pair with ReleaseHash.
func AcquireHash(id HashID) (hash.Hash, error) {
	if h, ok := hashPoolFor(id).Get().(hash.Hash); ok {
		return h, nil
	}
	return NewHash(id)
}

// ReleaseHash resets h and returns it to id's pool. h must not be used
// after release.
func ReleaseHash(id HashID, h hash.Hash) {
	if h == nil {
		return
	}
	h.Reset()
	hashPoolFor(id).Put(h)
}

// AcquireMAC returns a ready-to-write keyed MAC for (id, key), reusing
// a pooled state when one is available. Pair with ReleaseMAC using the
// same id and key.
func AcquireMAC(id HashID, key []byte) (hash.Hash, error) {
	if h, ok := macPoolFor(id, key).Get().(hash.Hash); ok {
		return h, nil
	}
	return NewMAC(id, key)
}

// ReleaseMAC resets h and returns it to the (id, key) pool. h must have
// been acquired with exactly this id and key, and must not be used
// after release.
func ReleaseMAC(id HashID, key []byte, h hash.Hash) {
	if h == nil {
		return
	}
	h.Reset()
	macPoolFor(id, key).Put(h)
}

// Tagger wrappers are pooled separately from the hash states they wrap,
// so an acquire/release cycle allocates nothing at steady state.
var (
	macTaggers  = sync.Pool{New: func() any { return new(macTagger) }}
	signTaggers = sync.Pool{New: func() any { return new(signTagger) }}
)

// AcquireTagger returns a Tagger for one measurement, wrapping a pooled
// (or freshly built) hash state. Pair it with ReleaseTagger.
func (s Scheme) AcquireTagger() (Tagger, error) {
	if s.Signer != nil {
		h, err := AcquireHash(s.Hash)
		if err != nil {
			return nil, err
		}
		t := signTaggers.Get().(*signTagger)
		t.h, t.signer = h, s.Signer
		return t, nil
	}
	m, err := AcquireMAC(s.Hash, s.Key)
	if err != nil {
		return nil, err
	}
	t := macTaggers.Get().(*macTagger)
	t.h = m
	return t, nil
}

// ReleaseTagger returns t's hash state to the pool. t must have been
// produced by s.AcquireTagger and must not be used afterwards. Safe on
// nil.
func (s Scheme) ReleaseTagger(t Tagger) {
	switch tt := t.(type) {
	case *macTagger:
		ReleaseMAC(s.Hash, s.Key, tt.h)
		tt.h = nil
		macTaggers.Put(tt)
	case *signTagger:
		ReleaseHash(s.Hash, tt.h)
		tt.h, tt.signer = nil, nil
		signTaggers.Put(tt)
	}
}

// AppendMAC appends MAC_{id,key}(seg1 || seg2) to dst and returns the
// extended slice, computing through pooled keyed state — the
// allocation-free form of "derive a value by MACing a couple of short
// segments" (seed derivation, nonce binding checks). Either segment
// may be nil. Callers that reuse dst across calls pay no steady-state
// allocations.
func AppendMAC(dst []byte, id HashID, key, seg1, seg2 []byte) ([]byte, error) {
	m, err := AcquireMAC(id, key)
	if err != nil {
		return dst, err
	}
	m.Write(seg1)
	m.Write(seg2)
	dst = m.Sum(dst)
	ReleaseMAC(id, key, m)
	return dst, nil
}

// VerifyStream checks tag over the canonical byte stream produced by
// emit, which receives the tagger as its writer. Unlike VerifyTag this
// needs no intermediate buffer holding the whole attested image — the
// expected stream is fed straight into pooled hash state — which is
// what every Monte Carlo verification loop should use.
func (s Scheme) VerifyStream(emit func(w io.Writer) error, tag []byte) (bool, error) {
	if s.Signer != nil {
		h, err := AcquireHash(s.Hash)
		if err != nil {
			return false, err
		}
		defer ReleaseHash(s.Hash, h)
		if err := emit(h); err != nil {
			return false, err
		}
		return s.Signer.Verify(h.Sum(nil), tag) == nil, nil
	}
	m, err := AcquireMAC(s.Hash, s.Key)
	if err != nil {
		return false, err
	}
	defer ReleaseMAC(s.Hash, s.Key, m)
	if err := emit(m); err != nil {
		return false, err
	}
	return hmac.Equal(m.Sum(nil), tag), nil
}
