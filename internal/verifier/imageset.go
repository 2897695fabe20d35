package verifier

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"saferatt/internal/core"
	"saferatt/internal/inccache"
	"saferatt/internal/suite"
)

// Sentinel errors Verify distinguishes so callers can map image
// failures to distinct rejection reasons — a stale image is never a
// spurious pass, and never conflated with an unknown one.
var (
	// ErrUnknownImage: the id names no registered image, or a version
	// the registry has never published.
	ErrUnknownImage = errors.New("verifier: unknown image")
	// ErrStaleImage: the id names a version that was rotated out and is
	// past its grace window.
	ErrStaleImage = errors.New("verifier: image version retired past grace")
)

// ImageSet is an immutable, copy-on-write registry of named golden
// images — the multi-tenant verification surface. Each entry owns its
// image handle and a Batch (so batch-tag groups are interned
// per-image and probes are effectively keyed by (ImageID, epoch,
// nonce, order)); the whole name→entry table lives behind an atomic
// pointer, so the steady-state verify path is one pointer load and
// one map probe on top of the single-image Batch fast path — no lock,
// no allocation.
//
// Rotation (the OTA story): Rotate publishes version N+1 of a name as
// current while pinning version N with the epoch it retired at. A
// report tagged with the retired version still verifies against the
// pinned predecessor until the registry's epoch counter moves more
// than Grace epochs past the retirement, after which the version
// resolves to ErrStaleImage — explicitly rejected, never spuriously
// passed against either image. AdvanceEpoch moves the counter (one
// call per collection round, or per operator-defined rotation epoch)
// and prunes entries whose grace has lapsed; pruned versions still
// resolve to ErrStaleImage because the current entry's version bounds
// them. When both old and new images are golden-backed, Rotate seeds
// the new version's shared digest cache from the old one
// (inccache.SharedImageDerived), so only the blocks the update
// actually changed are ever re-hashed.
type ImageSet struct {
	grace      uint64
	keepEpochs int

	epoch atomic.Uint64
	tab   atomic.Pointer[imageTable]
	mu    sync.Mutex // serializes writers (Add/Rotate/SetDefault/AdvanceEpoch)

	staleProbes   atomic.Uint64
	unknownProbes atomic.Uint64
}

// imageTable is one published generation of the registry. Everything
// reachable from it is immutable.
type imageTable struct {
	byID map[ImageID]*imageEntry // every live (name, exact version)
	cur  map[string]*imageEntry  // name -> current version
	def  *imageEntry             // nil until SetDefault / first Add
}

// imageEntry is one live image version. retired==0 marks the current
// version; a retired entry is valid while epoch <= retired+grace.
type imageEntry struct {
	id      ImageID
	img     Image
	batch   *Batch
	retired uint64
}

// ImageSetConfig assembles an ImageSet.
type ImageSetConfig struct {
	// Grace is how many epochs a rotated-out version keeps verifying;
	// 0 means 1 (a retired version survives exactly one AdvanceEpoch).
	Grace uint64
	// KeepEpochs sizes each per-image Batch's multi-epoch expected-tag
	// cache (see Batch.KeepEpochs).
	KeepEpochs int
}

// NewImageSet returns an empty registry.
func NewImageSet(cfg ImageSetConfig) *ImageSet {
	if cfg.Grace == 0 {
		cfg.Grace = 1
	}
	s := &ImageSet{grace: cfg.Grace, keepEpochs: cfg.KeepEpochs}
	s.tab.Store(&imageTable{byID: map[ImageID]*imageEntry{}, cur: map[string]*imageEntry{}})
	return s
}

// newEntry builds one live entry (and its per-image Batch).
func (s *ImageSet) newEntry(id ImageID, img Image) *imageEntry {
	b := NewBatch(suite.SHA256, img)
	b.KeepEpochs = s.keepEpochs
	return &imageEntry{id: id, img: img, batch: b}
}

// clone copies the table for a copy-on-write update.
func (t *imageTable) clone() *imageTable {
	next := &imageTable{
		byID: make(map[ImageID]*imageEntry, len(t.byID)+1),
		cur:  make(map[string]*imageEntry, len(t.cur)+1),
		def:  t.def,
	}
	for id, e := range t.byID {
		next.byID[id] = e
	}
	for n, e := range t.cur {
		next.cur[n] = e
	}
	return next
}

// maxImageName bounds a registered name: the wire's image field and the
// checkpoint's image record carry "name@vN" behind a one-byte length,
// and the longest version suffix is "@v4294967295".
const maxImageName = 255 - len("@v4294967295")

// Add registers a new image name at version 1 and returns its exact
// id. The first image added becomes the default. Adding a name that
// already exists is an error — publish new content with Rotate. So is a
// name no wire id could resolve to: one containing '@' (ParseImageID
// splits on the last one, so "cam@v2" reads as version 2 of "cam") or
// longer than the one-byte length fields can carry with a version.
func (s *ImageSet) Add(name string, img Image) (ImageID, error) {
	switch {
	case name == "":
		return ImageID{}, fmt.Errorf("verifier: image name must be non-empty")
	case strings.Contains(name, "@"):
		return ImageID{}, fmt.Errorf("verifier: image name %q contains '@', which separates a name from its version", name)
	case len(name) > maxImageName:
		return ImageID{}, fmt.Errorf("verifier: image name of %d bytes exceeds the %d the wire and the checkpoint can carry", len(name), maxImageName)
	}
	if img.IsZero() {
		return ImageID{}, fmt.Errorf("verifier: image %q is zero", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tab.Load()
	if _, dup := t.cur[name]; dup {
		return ImageID{}, fmt.Errorf("verifier: image %q already registered", name)
	}
	id := ImageID{Name: name, Version: 1}
	e := s.newEntry(id, img)
	next := t.clone()
	next.byID[id] = e
	next.cur[name] = e
	if next.def == nil {
		next.def = e
	}
	s.tab.Store(next)
	return id, nil
}

// Rotate publishes img as the next version of name — the live OTA
// path. The outgoing version stays pinned (and verifiable) for Grace
// epochs from the current epoch; the returned id is the new current
// version. When both images are golden-backed, the new version's
// shared digest cache is seeded with the digests of unchanged blocks,
// so the rotation re-hashes only what the update touched.
func (s *ImageSet) Rotate(name string, img Image) (ImageID, error) {
	if img.IsZero() {
		return ImageID{}, fmt.Errorf("verifier: image %q is zero", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tab.Load()
	old, ok := t.cur[name]
	if !ok {
		return ImageID{}, fmt.Errorf("verifier: %w: %q", ErrUnknownImage, name)
	}
	if old.img.golden != nil && img.golden != nil {
		inccache.SharedImageDerived(old.img.golden, img.golden, inccache.DigestHash(suite.SHA256))
	}
	id := ImageID{Name: name, Version: old.id.Version + 1}
	e := s.newEntry(id, img)
	next := t.clone()
	// Pin the outgoing version: same entry, now carrying its
	// retirement epoch. The entry structs are shared immutably between
	// generations, so the pin is a fresh struct, not a mutation.
	pinned := &imageEntry{id: old.id, img: old.img, batch: old.batch, retired: s.epoch.Load()}
	if pinned.retired == 0 {
		// Epoch 0 would read as "current"; rotations at epoch zero pin
		// at 1 so the grace arithmetic stays uniform. Grace windows are
		// measured from the epoch AdvanceEpoch moves past anyway.
		pinned.retired = 1
	}
	next.byID[old.id] = pinned
	next.byID[id] = e
	next.cur[name] = e
	if next.def == old {
		next.def = e
	}
	s.tab.Store(next)
	return id, nil
}

// AdvanceEpoch moves the rotation epoch forward one step, prunes
// pinned versions whose grace window has lapsed, and returns the new
// epoch. Reports naming a pruned version keep rejecting with
// ErrStaleImage — the current entry's version number bounds every
// retired one.
func (s *ImageSet) AdvanceEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.epoch.Add(1)
	t := s.tab.Load()
	expired := false
	for _, ent := range t.byID {
		if ent.retired != 0 && e > ent.retired+s.grace {
			expired = true
			break
		}
	}
	if expired {
		next := t.clone()
		for id, ent := range next.byID {
			if ent.retired != 0 && e > ent.retired+s.grace {
				delete(next.byID, id)
			}
		}
		s.tab.Store(next)
	}
	return e
}

// Default returns the default image's current id (zero when the
// registry is empty).
func (s *ImageSet) Default() ImageID {
	if e := s.tab.Load().def; e != nil {
		return e.id
	}
	return ImageID{}
}

// Has reports whether name is registered.
func (s *ImageSet) Has(name string) bool {
	_, ok := s.tab.Load().cur[name]
	return ok
}

// Names returns the registered image names, sorted.
func (s *ImageSet) Names() []string {
	t := s.tab.Load()
	out := make([]string, 0, len(t.cur))
	for n := range t.cur {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// resolve maps an id to its live entry, nil when unknown, returning
// the id normalized to a concrete name (an empty Name with a nonzero
// Version means "this exact version of the default image", so the
// default's name is substituted before the version lookup). Stale
// versions (pruned, or pinned past grace) resolve to their entry or
// nil; Verify applies the grace policy on top.
func (s *ImageSet) resolve(t *imageTable, id ImageID) (ImageID, *imageEntry) {
	if id.Name == "" {
		if id.Version == 0 || t.def == nil {
			return id, t.def
		}
		id.Name = t.def.id.Name
	}
	if id.Version == 0 {
		return id, t.cur[id.Name]
	}
	return id, t.byID[id]
}

// Verify checks one report against the image the id names, applying
// rotation semantics: the current version and in-grace retired
// versions verify through their pinned Batch; retired-past-grace
// versions fail with ErrStaleImage; unregistered names or
// never-published versions fail with ErrUnknownImage. The steady
// state — current version of a registered image — is one atomic load
// and one map probe on top of Batch.Verify: no lock, no allocation.
func (s *ImageSet) Verify(key []byte, id ImageID, r *core.Report, shuffled bool) (bool, error) {
	b, err := s.BatchFor(id)
	if err != nil {
		return false, err
	}
	return b.Verify(key, r, shuffled)
}

// BatchFor resolves an id to the Batch its reports verify through,
// applying the rotation policy Verify documents (and counting a stale
// or unknown id as one probe). A caller with several reports under one
// id — a collection bundle — resolves once and calls Batch.Verify per
// report, so the bundle is judged against one registry generation.
func (s *ImageSet) BatchFor(id ImageID) (*Batch, error) {
	t := s.tab.Load()
	id, e := s.resolve(t, id)
	if e == nil {
		if id.Name != "" && id.Version != 0 {
			if cur, ok := t.cur[id.Name]; ok {
				if id.Version < cur.id.Version {
					// A version this name once published, pruned after its
					// grace lapsed: stale, not unknown.
					s.staleProbes.Add(1)
					return nil, ErrStaleImage
				}
				// A version the registry never published.
			}
		}
		s.unknownProbes.Add(1)
		return nil, ErrUnknownImage
	}
	if e.retired != 0 && s.epoch.Load() > e.retired+s.grace {
		s.staleProbes.Add(1)
		return nil, ErrStaleImage
	}
	return e.batch, nil
}

// ImageSetStats snapshots registry-level counters and per-image batch
// amortization.
type ImageSetStats struct {
	Images        int    // live entries (current + pinned)
	Names         int    // registered names
	Epoch         uint64 // current rotation epoch
	StaleProbes   uint64 // verifications rejected as stale versions
	UnknownProbes uint64 // verifications rejected as unknown images
	Batch         BatchStats
}

// Stats returns a snapshot of registry counters, with every live
// entry's batch counters summed.
func (s *ImageSet) Stats() ImageSetStats {
	t := s.tab.Load()
	st := ImageSetStats{
		Images:        len(t.byID),
		Names:         len(t.cur),
		Epoch:         s.epoch.Load(),
		StaleProbes:   s.staleProbes.Load(),
		UnknownProbes: s.unknownProbes.Load(),
	}
	for _, e := range t.byID {
		bs := e.batch.Stats()
		st.Batch.Reports += bs.Reports
		st.Batch.Computed += bs.Computed
	}
	return st
}
