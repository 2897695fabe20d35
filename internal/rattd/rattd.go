// Package rattd implements the networked verifier daemon: a
// transport-agnostic attestation service that answers SMART
// challenge/response hellos (§2.2), ingests ERASMUS collection bundles
// and SeED prover-initiated reports (§3.3) for thousands of provers,
// and verifies everything through the amortized verifier.Batch fast
// path against one shared golden image.
//
// The daemon speaks typed transport messages only, so the same Server
// runs over transport.Sim in deterministic tests and over
// transport.Net on real UDP sockets (cmd/rattd). It keeps no clock:
// the accept rules it applies (nonce binding, replay windows, monotonic
// counters, the expected tag) are the clock-free verification core of
// internal/verifier, shared with the simulated verifier.Verifier; what
// this package adds is striping, leases, enrollment, image binding and
// checkpointing.
//
// Concurrency model (one shard's insides). The transport delivers
// frames on RecvQueues dispatch workers at once, so the Server is
// built to verify in parallel rather than serialize on a daemon-wide
// mutex: per-prover freshness state (outstanding challenges, ERASMUS
// dedup windows, SeED watermarks) is partitioned across lock stripes
// keyed by prover-name hash, so handlers for different provers never
// contend. The unit of work is the bundle: a handler visits its
// prover's stripe once to snapshot (bind the image, enrol, copy the
// prover's verifier.Freshness out), judges every report against that
// copy under no lock — all crypto runs here: nonce derivation (memoised
// per counter where the fleet shares it, pooled MAC state otherwise),
// one image resolution, tag verification through the read-mostly
// expected-tag cache — and visits the stripe a second time to commit
// what came out clean. The commit re-checks, which is what makes the
// copy sound: freshness state only grows, so a racing bundle can only
// turn a clean report into a replay, and the re-check finds exactly
// that (see the comment above handleCollection). Outcome counters are
// atomics, added to once a bundle. A stripe lock is held only for map
// touches and window updates measured in nanoseconds, which is what
// lets a shard's throughput scale with the cores the transport already
// fans out to.
package rattd

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"saferatt/internal/core"
	"saferatt/internal/device"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// DefaultKey is the fleet-shared attestation key devices ship with.
var DefaultKey = device.DefaultKey

// labelChallenge keys the daemon's SMART challenge nonce stream (the
// other derivations and every accept rule live in the verification
// core, internal/verifier/protocol.go).
var labelChallenge = []byte("rattd-challenge")

// DedupWindow is the ERASMUS replay window of the verification core,
// aliased here because checkpoints (Checkpoint.Erasmus) and the frozen
// bench module name it through this package.
type DedupWindow = verifier.DedupWindow

// DefaultImageName is the registry name a single-image Config's Ref is
// registered under, and the image imageless reports are served against.
const DefaultImageName = "default"

// DefaultPendingCap bounds outstanding (unanswered) SMART challenges
// held across the server. A prover that hellos and never reports used
// to leak its nonce entry forever; past the cap the oldest entry is
// evicted — its owner re-initiates on timeout, which is the SMART
// recovery path anyway.
const DefaultPendingCap = 1 << 16

// Config assembles a Server.
type Config struct {
	// Name is the daemon's endpoint name; defaults to "rattd".
	Name string
	// Key is the shared MAC-mode attestation key; defaults to
	// DefaultKey.
	Key []byte
	// Ref is the golden memory image provers are expected to hold.
	// Ignored when Images is set.
	Ref []byte
	// BlockSize is the measurement granularity of Ref.
	BlockSize int
	// Images, when set, serves a heterogeneous fleet: reports verify
	// against the image their wire image id names, provers are bound to
	// an image at enrollment, and live rotation (ImageSet.Rotate)
	// follows the registry's grace semantics. Nil builds a single-image
	// registry from Ref/BlockSize under DefaultImageName — the
	// pre-registry behavior bit for bit.
	Images *verifier.ImageSet
	// Shuffled selects permuted traversal orders (SMARM-style).
	Shuffled bool
	// KeepEpochs sizes the batch verifier's multi-epoch expected-tag
	// cache and the ERASMUS nonce memo beside it. ERASMUS
	// self-measurements carry counter-derived nonces, so bundles from a
	// fleet interleave a handful of epochs; defaults to 64.
	KeepEpochs int
	// Stripes is the number of lock stripes the per-prover freshness
	// state is partitioned across (rounded up to a power of two).
	// Defaults to 4×GOMAXPROCS: enough that concurrent dispatch
	// workers rarely collide, cheap enough to be irrelevant at 1.
	Stripes int
	// PendingCap bounds outstanding SMART challenges across the
	// server (oldest evicted first); defaults to DefaultPendingCap.
	// Negative means 1 (the minimum).
	PendingCap int
	// Lease, when set, supplies challenge nonce-counter epoch leases
	// (normally from a tier Coordinator). It is called off the hot
	// path — once per exhausted window, not per challenge — so a
	// sharded tier stays shared-nothing on every report. Nil means
	// the server self-leases the whole counter space, which is the
	// pre-shard single-daemon behavior bit for bit.
	Lease func() EpochLease
	// Logf, if set, receives per-decision diagnostics.
	Logf func(format string, args ...any)
}

// Counts aggregates the daemon's verification outcomes. The fields
// are maintained as independent atomics; a snapshot taken while
// handlers are running is exact per field but not a single
// linearization point across fields.
type Counts struct {
	Challenges uint64 // hellos answered with a fresh nonce
	Accepted   uint64 // reports that verified clean
	Rejected   uint64 // reports rejected (tag, nonce, geometry, ...)
	Replays    uint64 // reports rejected as replays specifically
}

// Server is the verifier daemon. All handler paths are safe for
// concurrent use: the transport's dispatch workers call straight in.
type Server struct {
	cfg     Config
	tr      transport.Transport
	images  *verifier.ImageSet
	defName string              // default image's name (normalized away in bindings)
	nonces  *verifier.NonceMemo // ERASMUS nonce per counter, fleet-shared like the tags

	stripes []*stripe
	mask    uint64

	// The challenge-counter lease has its own small mutex: hellos
	// touch it for a counter increment (and once per exhausted window
	// for a coordinator round-trip); no report path ever takes it.
	leaseMu  sync.Mutex
	lease    EpochLease
	nonceCtr uint64

	enrolled       atomic.Int64
	dirtyProvers   atomic.Int64  // provers dirtied since the last checkpoint swap
	imageFallbacks atomic.Uint64 // restored bindings to unknown images, remapped to default
	cnt            struct {
		challenges, accepted, rejected, replays atomic.Uint64
	}
}

// stripe owns the freshness state of the provers that hash to it.
// Every map touch happens under mu; nothing slower than a map
// operation ever does.
type stripe struct {
	mu         sync.Mutex
	pending    map[string]pendingChallenge // prover -> outstanding challenge
	order      []pendingRef                // insertion order for oldest-first eviction
	seq        uint64                      // challenge insertion sequence
	pendingCap int
	provers    map[string]*proverRec // prover -> durable freshness record

	// Checkpoint dirty tracking. ckptGen is the current checkpoint
	// generation (starts at 1 so a zero dirtyGen always reads clean);
	// dirty lists the provers stamped with it, in first-touch order.
	// A delta checkpoint swaps both under the stripe lock: it takes
	// the dirty list, bumps the generation, and walks only those
	// records — commits racing the swap land wholly in this delta or
	// wholly in the next one, never in neither.
	ckptGen uint64
	dirty   []string
}

// proverRec is one prover's durable state — exactly what a checkpoint
// persists: the core's freshness record (ERASMUS replay window, SeED
// watermark), the image binding, and the dirty stamp the delta encoder
// keys off. One record lives on one stripe, so per-prover checkpoint
// consistency is a single-lock property.
type proverRec struct {
	fresh    verifier.Freshness // Window valid when hasWin, SeedLast when hasSeed
	image    string             // bound image name; "" = the fleet default
	hasWin   bool
	hasSeed  bool
	dirtyGen uint64 // stripe ckptGen this record was last dirtied under
}

// markDirty stamps a record into the current checkpoint generation.
// Caller holds st.mu. The common case — a prover reporting again
// between checkpoints — is a compare and nothing else; the first
// touch per generation appends to a slice that keeps its backing
// array across swaps, so the steady state allocates nothing.
func (st *stripe) markDirty(s *Server, name string, rec *proverRec) {
	if rec.dirtyGen != st.ckptGen {
		rec.dirtyGen = st.ckptGen
		st.dirty = append(st.dirty, name)
		s.dirtyProvers.Add(1)
	}
}

// rec returns the prover's freshness record, creating (and counting
// as enrolled) on first contact. Caller holds st.mu.
func (st *stripe) rec(s *Server, name string) *proverRec {
	r := st.provers[name]
	if r == nil {
		r = &proverRec{}
		st.provers[name] = r
		s.enrolled.Add(1)
	}
	return r
}

type pendingChallenge struct {
	nonce verifier.Challenge
	seq   uint64
}

// pendingRef is one entry of a stripe's eviction FIFO. A re-hello
// supersedes the prover's entry (new seq), leaving the old ref stale;
// stale refs are skipped at eviction and compacted away when they
// outnumber live entries.
type pendingRef struct {
	name string
	seq  uint64
}

// Serve binds a new Server to tr under cfg.Name and starts answering.
func Serve(tr transport.Transport, cfg Config) (*Server, error) {
	if cfg.Images == nil && (len(cfg.Ref) == 0 || cfg.BlockSize <= 0 || len(cfg.Ref)%cfg.BlockSize != 0) {
		return nil, fmt.Errorf("rattd: golden image of %d bytes is not a positive multiple of block size %d",
			len(cfg.Ref), cfg.BlockSize)
	}
	if cfg.Images != nil && cfg.Images.Default().Name == "" {
		return nil, fmt.Errorf("rattd: image registry holds no default image")
	}
	if cfg.Name == "" {
		cfg.Name = "rattd"
	}
	if cfg.Key == nil {
		cfg.Key = DefaultKey
	}
	if cfg.KeepEpochs == 0 {
		cfg.KeepEpochs = 64
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.PendingCap == 0 {
		cfg.PendingCap = DefaultPendingCap
	}
	nstripes := 1 << bits.Len(uint(cfg.Stripes-1)) // next power of two
	perStripeCap := cfg.PendingCap / nstripes
	if perStripeCap < 1 {
		perStripeCap = 1
	}
	images := cfg.Images
	if images == nil {
		// Single-image fleet: the Ref becomes a one-entry registry, so
		// the verify path is uniform and a later Rotate works on any
		// server.
		images = verifier.NewImageSet(verifier.ImageSetConfig{KeepEpochs: cfg.KeepEpochs})
		if _, err := images.Add(DefaultImageName, verifier.ImageOf(cfg.Ref, cfg.BlockSize)); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:     cfg,
		tr:      tr,
		images:  images,
		defName: images.Default().Name,
		nonces:  verifier.NewNonceMemo(cfg.Key, cfg.KeepEpochs),
		stripes: make([]*stripe, nstripes),
		mask:    uint64(nstripes - 1),
	}
	for i := range s.stripes {
		s.stripes[i] = &stripe{
			pending:    map[string]pendingChallenge{},
			pendingCap: perStripeCap,
			provers:    map[string]*proverRec{},
			ckptGen:    1,
		}
	}
	// The zero-copy receive form: over Net, report fields arrive as
	// views into the transport's receive buffer and are consumed before
	// the handler returns (every retained value below — nonces,
	// counters, prover names — is owned or interned), so ingesting a
	// collection costs no per-report copies.
	if err := tr.BindFrames(cfg.Name, s.onFrame); err != nil {
		return nil, err
	}
	return s, nil
}

// Name returns the daemon's endpoint name.
func (s *Server) Name() string { return s.cfg.Name }

// Close unbinds the daemon from its transport. The transport itself is
// the caller's to close (it may host other endpoints).
func (s *Server) Close() { s.tr.Unbind(s.cfg.Name) }

// Stripes returns the server's stripe count (diagnostics).
func (s *Server) Stripes() int { return len(s.stripes) }

// Counts returns a snapshot of outcome counters.
func (s *Server) Counts() Counts {
	return Counts{
		Challenges: s.cnt.challenges.Load(),
		Accepted:   s.cnt.accepted.Load(),
		Rejected:   s.cnt.rejected.Load(),
		Replays:    s.cnt.replays.Load(),
	}
}

// BatchStats exposes the amortization counters summed across every
// image's batch verifier.
func (s *Server) BatchStats() verifier.BatchStats { return s.images.Stats().Batch }

// Images returns the server's image registry — the handle operators
// use for live golden rotation (Rotate / AdvanceEpoch) while the
// server keeps serving.
func (s *Server) Images() *verifier.ImageSet { return s.images }

// ImageFallbacks counts restored prover bindings that named an image
// unknown to this server's registry and were remapped to the default.
func (s *Server) ImageFallbacks() uint64 { return s.imageFallbacks.Load() }

// Enrolled counts the distinct provers the server holds freshness
// state for — the "enrollment" that checkpoint/restore preserves, so
// a restarted shard keeps rejecting replays and accepting fresh
// counters without the fleet re-registering. Maintained as a counter
// at insert time (it is read per stats tick; scanning every stripe's
// tables there would serialize against the ingest path).
func (s *Server) Enrolled() int { return int(s.enrolled.Load()) }

// DirtyCount is the number of provers whose freshness state changed
// since the last checkpoint swap — what the next delta checkpoint
// would have to write. Maintained as an atomic at dirty-stamp time,
// so the background checkpointer's skip-when-clean probe costs one
// load, never a stripe scan.
func (s *Server) DirtyCount() int64 { return s.dirtyProvers.Load() }

// leaseState snapshots the challenge-counter lease and its cursor
// (checkpoint header fields).
func (s *Server) leaseState() (EpochLease, uint64) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	return s.lease, s.nonceCtr
}

// stripeFor picks the lock stripe owning a prover's freshness state.
// The name hash is mixed through splitmix64 so provers that rendezvous
// onto one shard still spread across its stripes.
func (s *Server) stripeFor(name string) *stripe {
	return s.stripes[mix64(fnv64a(name))&s.mask]
}

// leaseFn pulls the next epoch lease: the configured coordinator
// hook, or a self-lease over the whole counter space when the server
// runs unsharded. Called with leaseMu held; the coordinator never
// calls back into a shard, so the nesting cannot deadlock.
func (s *Server) leaseFn() EpochLease {
	if s.cfg.Lease != nil {
		return s.cfg.Lease()
	}
	return EpochLease{Lo: 1, Hi: math.MaxUint64}
}

// nextChallengeCtr allocates one challenge counter out of the lease,
// pulling a fresh lease when the window runs dry — in a sharded tier
// the coordinator is touched once per DefaultLeaseWindow challenges,
// never per request.
func (s *Server) nextChallengeCtr() uint64 {
	s.leaseMu.Lock()
	if s.nonceCtr < s.lease.Lo || s.nonceCtr >= s.lease.Hi {
		s.lease = s.leaseFn()
		s.nonceCtr = s.lease.Lo
	}
	c := s.nonceCtr
	s.nonceCtr++
	s.leaseMu.Unlock()
	return c
}

// onFrame is the receive path: report fields may be views into the
// transport's buffer, and are consumed entirely inside the handler. The
// frame's image id is interned, so threading it through costs nothing.
func (s *Server) onFrame(f *transport.Frame) {
	s.IngestImage(f.From, f.Kind, f.Image, f.Reports)
}

// Ingest delivers one bundle to the server exactly as if it had
// arrived on the transport — the in-process embedding path used by
// benchmarks and the million-prover scale experiment (E15): no codec,
// no socket, the handler runs synchronously on the caller's
// goroutine. Safe for concurrent use from any number of goroutines.
// Report-less kinds (KindHello) take nil reports; replies (challenge,
// verdict) go out through the server's transport as usual. The bundle
// carries no image id, so it verifies against the prover's bound
// image (the fleet default until a named contact binds one).
func (s *Server) Ingest(from string, kind transport.Kind, reports []core.Report) {
	s.IngestImage(from, kind, "", reports)
}

// IngestImage is Ingest with the wire image id ("name" or "name@vN")
// the bundle arrived under — what the frame paths feed. An empty id
// resolves to the prover's bound image; a named id must match the
// binding (first named contact binds); an exact version follows the
// registry's rotation semantics (in-grace retired versions verify,
// stale ones reject with ReasonStaleImage).
func (s *Server) IngestImage(from string, kind transport.Kind, image string, reports []core.Report) {
	id, err := verifier.ParseImageID(image)
	if err != nil {
		s.rejectBundle(from, kind, len(reports), verifier.ReasonMalformedImage)
		return
	}
	switch kind {
	case transport.KindHello:
		s.handleHello(from)
	case transport.KindReport:
		s.handleReport(from, id, reports)
	case transport.KindCollection:
		s.handleCollection(from, id, reports)
	case transport.KindSeedReport:
		s.handleSeed(from, id, reports)
	}
}

// rejectBundle refuses a bundle whole, counting what the kind's handler
// would have — one outcome for a SMART exchange however many rounds it
// carries, one per report otherwise (accepted + rejected == exchanges +
// reports) — and answers the verdict the kind calls for.
func (s *Server) rejectBundle(from string, kind transport.Kind, n int, why verifier.Reason) {
	if kind == transport.KindReport {
		s.count(why, 1)
	} else {
		s.count(why, n)
	}
	switch kind {
	case transport.KindReport, transport.KindCollection:
		s.verdict(from, "bundle", n, why, nil)
	}
}

// bindImage resolves a bundle's image name against the binding stored
// in the prover's record: the first named contact binds (enrollment-time
// assignment in a fleet whose provers always present their class),
// later bundles may omit the name, and a conflicting name rejects.
// The default image's own name normalizes to "" so homogeneous fleets
// store no binding at all. A nil rec is a prover not enrolled yet — the
// SMART and SeED paths do not enroll here — and leaves the binding
// unstored. Returns the effective name and false on a binding mismatch.
// Caller holds st.mu.
func (st *stripe) bindImage(s *Server, from string, rec *proverRec, name string) (string, bool) {
	bound := ""
	if rec != nil {
		bound = rec.image
	}
	switch {
	case name == "":
		return bound, true
	case name == s.defName:
		// An explicit claim of the default image is never stored (the
		// default binding IS the empty string) but still conflicts with
		// a binding to any other image.
		if bound != "" {
			return "", false
		}
		return "", true
	case bound == name:
		return name, true
	case bound != "":
		return "", false
	}
	if rec != nil { // first named contact binds
		rec.image = name
		st.markDirty(s, from, rec)
	}
	return name, true
}

// handleHello answers a prover's hello with a fresh challenge nonce
// (step 1 of the §2.2 timeline, prover-initiated so it traverses
// NATs). The counter comes out of the epoch lease, the nonce is
// derived off-lock, and only the pending-table insert touches the
// prover's stripe.
func (s *Server) handleHello(from string) {
	ctr := s.nextChallengeCtr()
	nonce := verifier.ChallengeNonce(s.cfg.Key, labelChallenge, ctr)
	st := s.stripeFor(from)
	st.mu.Lock()
	st.putPending(from, nonce)
	st.mu.Unlock()
	s.cnt.challenges.Add(1)
	s.tr.Send(transport.Msg{From: s.cfg.Name, To: from, Kind: transport.KindChallenge, Nonce: nonce})
}

// putPending inserts an outstanding challenge, evicting oldest-first
// past the stripe's share of PendingCap. Caller holds st.mu.
func (st *stripe) putPending(name string, nonce []byte) {
	st.seq++
	st.pending[name] = pendingChallenge{nonce: nonce, seq: st.seq}
	st.order = append(st.order, pendingRef{name: name, seq: st.seq})
	for len(st.pending) > st.pendingCap {
		ref := st.order[0]
		st.order = st.order[1:]
		if p, ok := st.pending[ref.name]; ok && p.seq == ref.seq {
			delete(st.pending, ref.name)
		}
	}
	// Re-hellos leave stale refs behind; compact when they dominate so
	// the FIFO stays O(live entries) even under a re-hello storm.
	if len(st.order) > 2*st.pendingCap && len(st.order) > 2*len(st.pending) {
		live := st.order[:0]
		for _, ref := range st.order {
			if p, ok := st.pending[ref.name]; ok && p.seq == ref.seq {
				live = append(live, ref)
			}
		}
		st.order = live
	}
}

// takePending consumes a prover's outstanding challenge (nil: none).
// Caller holds st.mu.
func (st *stripe) takePending(name string) verifier.Challenge {
	p := st.pending[name]
	delete(st.pending, name)
	return p.nonce
}

// handleReport validates a challenge response and answers with a
// verdict. One stripe visit checks the binding and consumes the pending
// challenge; nonce comparison and tag verification run off-lock. The
// challenge is consumed here, so its nonce cannot recur and the tag is
// verified without being cached.
func (s *Server) handleReport(from string, id verifier.ImageID, reports []core.Report) {
	st := s.stripeFor(from)
	st.mu.Lock()
	name, bound := st.bindImage(s, from, st.provers[from], id.Name)
	nonce := st.takePending(from)
	st.mu.Unlock()
	why := verifier.ReasonImageMismatch
	var err error
	if bound {
		why = nonce.Open(len(reports))
	}
	tags := bundleTags{s: s, id: verifier.ImageID{Name: name, Version: id.Version}}
	for i := 0; i < len(reports) && why == verifier.ReasonOK; i++ {
		r := &reports[i]
		if why = nonce.Check(r); why == verifier.ReasonOK {
			why, err = tags.verify(r)
		}
	}
	s.count(why, 1)
	s.verdict(from, "report", len(reports), why, err)
}

// verdict answers a bundle with its first failure (or OK).
func (s *Server) verdict(from, what string, n int, why verifier.Reason, err error) {
	ok, reason := why == verifier.ReasonOK, why.Text(err)
	if s.cfg.Logf != nil { // guarded: the variadic boxing allocates
		s.cfg.Logf("%s %s (%d reports): ok=%v %s", what, from, n, ok, reason)
	}
	s.tr.Send(transport.Msg{From: s.cfg.Name, To: from, Kind: transport.KindVerdict, OK: ok, Reason: reason})
}

// ingestScratch holds the reusable buffers of one bundle's ingest:
// pooled so the steady-state verify path allocates nothing.
type ingestScratch struct {
	nonce []byte            // PRF output
	seed  []byte            // derived SeED schedule seed
	name  []byte            // prover name bytes (string→[]byte staging)
	why   []verifier.Reason // the bundle's verdicts, one per report
}

var scratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// A collection or SeED bundle is judged as one unit, in three steps
// that visit the prover's stripe twice:
//
//	snapshot  (locked)   bind the image, enrol, copy the 48-byte
//	                     verifier.Freshness out
//	judge     (no lock)  every report against the copy, with the core's
//	                     rules in the core's order: check, tag, commit
//	                     on the copy — so a duplicate or an out-of-order
//	                     counter inside the bundle meets the state the
//	                     reports before it left
//	commit    (locked)   replay the commit on the real record for the
//	                     reports that came out clean, mark dirty once
//
// Judging a copy is sound because the commit re-checks: Freshness only
// ever grows (a window bit is never cleared while its counter is inside
// the window, the SeED watermark never falls), so whatever a racing
// bundle committed since the snapshot can only turn a clean report into
// a replay, and CommitErasmus / CommitSeed on the real record catches
// exactly that. Of two racing bundles exactly one wins each counter.
// Every PRF, tag computation and registry lookup happens in the judge
// step, outside the lock.

// handleCollection validates an ERASMUS measurement history under the
// core's §3.3 rules (Freshness.CheckErasmus / CommitErasmus). Each
// offending report is rejected exactly once; the verdict covers the
// whole bundle and carries its first failure in bundle order, whichever
// step found it. The nonce and the expected tag depend only on (key,
// counter), which the fleet shares, so both come from read-mostly memos;
// a counter enters the nonce memo only once a report carrying it has
// committed on the real record.
func (s *Server) handleCollection(from string, id verifier.ImageID, reports []core.Report) {
	sc := scratchPool.Get().(*ingestScratch)
	s.collect(sc, from, id, reports)
	scratchPool.Put(sc)
}

// collect is handleCollection on the caller's scratch: it returns the
// verdict it sent and leaves each report's own in sc.why, unless the
// binding refused the bundle whole.
func (s *Server) collect(sc *ingestScratch, from string, id verifier.ImageID, reports []core.Report) verifier.Reason {
	st := s.stripeFor(from)

	// Snapshot: one probe for the record, enrolling on first contact,
	// then the binding on it — a mismatch needs a stored binding, hence
	// a record that already existed, so a mismatched image claim still
	// rejects the whole bundle (every report counted) before any state
	// moves. Then the prover gets its window, so a restarted shard's
	// checkpoint covers provers whose every report was rejected too
	// (enrolled, just never clean). The record pointer is stable (heap
	// value behind the stripe map), so the commit visit reuses it.
	st.mu.Lock()
	rec := st.rec(s, from)
	name, bound := st.bindImage(s, from, rec, id.Name)
	if !bound {
		st.mu.Unlock()
		sc.why = sc.why[:0]
		s.rejectBundle(from, transport.KindCollection, len(reports), verifier.ReasonImageMismatch)
		return verifier.ReasonImageMismatch
	}
	if !rec.hasWin {
		rec.hasWin = true
		st.markDirty(s, from, rec)
	}
	fresh := rec.fresh
	st.mu.Unlock()

	// Judge.
	tags := bundleTags{s: s, id: verifier.ImageID{Name: name, Version: id.Version}, shared: true}
	first, firstAt := verifier.ReasonOK, len(reports) // the bundle's first failure
	var firstErr error
	if len(reports) == 0 {
		first = verifier.ReasonEmptyCollection
	}
	why := sc.why[:0]
	var cnt bundleCounts
	missed := false // some nonce was not in the memo
	var prevCtr uint64
	for i := range reports {
		r := &reports[i]
		want, memoised := s.nonces.Nonce(sc.nonce, r.Counter)
		if !memoised {
			sc.nonce, missed = want, true // derived into the scratch: keep its backing array
		}
		w := fresh.CheckErasmus(r, want, i == 0, prevCtr)
		var err error
		if w == verifier.ReasonOK {
			if w, err = tags.verify(r); w == verifier.ReasonOK {
				w = fresh.CommitErasmus(r.Counter)
			}
		}
		cnt.add(w, 1)
		if w != verifier.ReasonOK && first == verifier.ReasonOK {
			first, firstErr, firstAt = w, err, i
		}
		why = append(why, w)
		prevCtr = r.Counter
	}
	sc.why = why

	// Commit.
	if cnt.accepted > 0 {
		st.mu.Lock()
		for i, w := range why {
			if w != verifier.ReasonOK {
				continue
			}
			if w = rec.fresh.CommitErasmus(reports[i].Counter); w != verifier.ReasonOK {
				why[i] = w // a racing bundle took the counter
				cnt.accepted--
				cnt.add(w, 1)
				if i < firstAt {
					first, firstErr, firstAt = w, nil, i
				}
			}
		}
		if cnt.accepted > 0 {
			st.markDirty(s, from, rec)
		}
		st.mu.Unlock()
	}
	s.tally(cnt)
	// A bundle whose every nonce came from the memo has nothing to
	// admit. Otherwise every committed counter is offered, in bundle
	// order: Admit leaves one that is already there alone.
	if missed && cnt.accepted > 0 {
		for i, w := range why {
			if w == verifier.ReasonOK {
				s.nonces.Admit(reports[i].Counter)
			}
		}
	}
	s.verdict(from, "collection", len(reports), first, firstErr)
	return first
}

// handleSeed ingests unsolicited SeED reports under the core's rules
// (Freshness.CheckSeed / CommitSeed): nonce bound to the prover's
// derived seed and counter, counters strictly above a per-prover
// watermark. SeED is non-interactive, so no verdict is sent back. The
// bundle takes the same snapshot → judge → commit shape as a
// collection; a prover not yet enrolled is judged against the zero
// record and enrolled by its first report to commit. The nonce is per
// prover and, once accepted, at or below the watermark for good, so the
// tag is verified without being cached.
func (s *Server) handleSeed(from string, id verifier.ImageID, reports []core.Report) {
	st := s.stripeFor(from)
	// Snapshot. The binding pass must not create the record; a first
	// named contact that never verifies clean still binds nothing.
	var fresh verifier.Freshness
	st.mu.Lock()
	rec := st.provers[from]
	name, bound := st.bindImage(s, from, rec, id.Name)
	if rec != nil {
		fresh = rec.fresh
	}
	st.mu.Unlock()
	if !bound {
		s.rejectBundle(from, transport.KindSeedReport, len(reports), verifier.ReasonImageMismatch)
		return
	}

	// Judge.
	var errs []error // per report, kept for the decision log only
	if s.cfg.Logf != nil {
		errs = make([]error, len(reports))
	}
	tags := bundleTags{s: s, id: verifier.ImageID{Name: name, Version: id.Version}}
	sc := scratchPool.Get().(*ingestScratch)
	sc.name = append(sc.name[:0], from...)
	sc.seed = verifier.AppendSeedFor(sc.seed[:0], s.cfg.Key, sc.name)
	why := sc.why[:0]
	var cnt bundleCounts
	for i := range reports {
		r := &reports[i]
		sc.nonce = core.AppendSeedNonce(sc.nonce[:0], sc.seed, r.Counter)
		w := fresh.CheckSeed(r, sc.nonce)
		if w == verifier.ReasonOK {
			var err error
			if w, err = tags.verify(r); w == verifier.ReasonOK {
				w = fresh.CommitSeed(r.Counter)
			}
			if errs != nil {
				errs[i] = err
			}
		}
		cnt.add(w, 1)
		why = append(why, w)
	}

	// Commit; the first report to get here enrolls the prover.
	if cnt.accepted > 0 {
		st.mu.Lock()
		rec = st.rec(s, from)
		for i, w := range why {
			if w != verifier.ReasonOK {
				continue
			}
			if w = rec.fresh.CommitSeed(reports[i].Counter); w != verifier.ReasonOK {
				why[i] = w
				cnt.accepted--
				cnt.add(w, 1)
			}
		}
		if cnt.accepted > 0 {
			if rec.image == "" && name != "" {
				rec.image = name // enrollment-time binding
			}
			rec.hasSeed = true
			st.markDirty(s, from, rec)
		}
		st.mu.Unlock()
	}
	s.tally(cnt)
	if errs != nil {
		for i, w := range why {
			s.cfg.Logf("seed-report %s ctr=%d: ok=%v %s", from, reports[i].Counter, w == verifier.ReasonOK, w.Text(errs[i]))
		}
	}
	sc.why = why
	scratchPool.Put(sc)
}

// bundleTags checks the tags of one bundle's reports. The image id is
// resolved once, by the first report that gets as far as its tag, so a
// bundle is judged against one registry generation and a bundle that
// is refused on freshness alone never probes the registry. shared
// says the reports' nonces are shared across the fleet (the batch fast
// path: cached expected tags); one-shot nonces are computed and not
// cached. Runs under no lock: the registry table and every batch's
// expected-tag cache are read-mostly concurrent. Image-policy failures
// map to their distinct reasons — a stale-but-in-grace version verifies
// against the pinned predecessor, a stale-past-grace version is
// ReasonStaleImage, never a spurious pass.
type bundleTags struct {
	s      *Server
	id     verifier.ImageID
	shared bool

	resolved bool
	batch    *verifier.Batch
	err      error
}

func (t *bundleTags) verify(r *core.Report) (verifier.Reason, error) {
	if r.RegionCount > 0 || r.Data != nil {
		// Per-device regions and reported data blocks defeat the shared
		// expected tag; the daemon serves uniform fleets.
		return verifier.ReasonRegionUnserved, nil
	}
	if !t.resolved {
		t.batch, t.err = t.s.images.BatchFor(t.id)
		t.resolved = true
	}
	if t.err != nil {
		return verifier.TagReason(false, t.err), t.err
	}
	var ok bool
	var err error
	if t.shared {
		ok, err = t.batch.Verify(t.s.cfg.Key, r, t.s.cfg.Shuffled)
	} else {
		ok, err = t.batch.VerifyOnce(t.s.cfg.Key, r, t.s.cfg.Shuffled)
	}
	return verifier.TagReason(ok, err), err
}

// bundleCounts is one bundle's share of Counts, summed on the handler's
// stack and added to the shared atomics once.
type bundleCounts struct{ accepted, rejected, replays uint64 }

// add counts n reports that drew the verdict why.
func (c *bundleCounts) add(why verifier.Reason, n int) {
	switch {
	case why == verifier.ReasonOK:
		c.accepted += uint64(n)
	case why.IsReplay():
		c.replays += uint64(n)
		fallthrough
	default:
		c.rejected += uint64(n)
	}
}

// count tallies n reports that all drew the verdict why.
func (s *Server) count(why verifier.Reason, n int) {
	var c bundleCounts
	c.add(why, n)
	s.tally(c)
}

// tally adds a bundle's outcomes to the server's counters.
func (s *Server) tally(c bundleCounts) {
	if c.accepted != 0 {
		s.cnt.accepted.Add(c.accepted)
	}
	if c.rejected != 0 {
		s.cnt.rejected.Add(c.rejected)
	}
	if c.replays != 0 {
		s.cnt.replays.Add(c.replays)
	}
}

// SeedFor derives a prover's SeED schedule seed from the shared key
// and its name; daemon and prover compute it independently.
func SeedFor(key []byte, prover string) []byte {
	return verifier.AppendSeedFor(nil, key, []byte(prover))
}
