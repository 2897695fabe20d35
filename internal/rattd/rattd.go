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
// counters, the expected tag) are the clock-free transition of
// internal/verifier (verifier.Judge), shared with the simulated
// verifier.Verifier; what this package adds is striping, enrollment,
// image binding and checkpointing.
//
// Concurrency model (one Server's insides). The transport delivers
// frames on its dispatch workers at once (one a core, at least four:
// recvQueues in transport/net.go), so per-prover freshness state
// (ERASMUS dedup windows, SeED watermarks, image bindings) is
// partitioned across lock stripes keyed by prover-name hash, and
// handlers for different provers never contend. The unit of work is the
// bundle: a handler snapshots its prover's record under the stripe lock,
// runs verifier.Judge on the copy under no lock — every PRF, registry
// lookup and tag computation happens there — and takes the lock again
// to commit what came out clean (see the comment above
// handleCollection). Outcome counters are one atomic per verdict,
// added to once a bundle per distinct verdict. A stripe lock is held
// only for table probes and window updates measured in nanoseconds.
package rattd

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"saferatt/internal/core"
	"saferatt/internal/device"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// DefaultKey is the fleet-shared attestation key devices ship with.
var DefaultKey = device.DefaultKey

// labelChallenge labels the MAC of the daemon's SMART challenges (the
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

// KeepEpochs sizes the batch verifier's multi-epoch expected-tag cache
// and the ERASMUS nonce memo beside it. ERASMUS self-measurements carry
// counter-derived nonces, so bundles from a fleet interleave a handful
// of epochs. A registry a caller builds for Config.Images sizes its
// own tag caches (verifier.ImageSetConfig.KeepEpochs).
const KeepEpochs = 64

// endpoint is the name every Server answers as on its transport: a
// fleet reaches one daemon a socket, so two Servers sit on two
// transports.
const endpoint = "rattd"

// Config assembles a Server.
type Config struct {
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
	// Stripes is the number of lock stripes the per-prover freshness
	// state is partitioned across (rounded up to a power of two).
	// Defaults to 4×GOMAXPROCS: enough that concurrent dispatch
	// workers rarely collide, cheap enough to be irrelevant at 1.
	Stripes int
	// Logf, if set, receives per-decision diagnostics.
	Logf func(format string, args ...any)
}

// Counts aggregates the daemon's verification outcomes. The counters
// are independent atomics; a snapshot taken while handlers are running
// is exact per counter but not a single linearization point across
// counters.
type Counts struct {
	Challenges uint64 // hellos answered with a fresh nonce
	// Outcomes per verdict, and its three sums (Summed fills them).
	Verdicts                    verifier.Tally
	Accepted, Rejected, Replays uint64
}

// Summed returns c with the sums of its Verdicts filled in.
func (c Counts) Summed() Counts {
	c.Accepted, c.Rejected, c.Replays = c.Verdicts.Accepted(), c.Verdicts.Rejected(), c.Verdicts.Replays()
	return c
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
	seed    maphash.Seed // files provers within their stripe; see stripeHash
	// chal issues and redeems SMART challenges under a key drawn for
	// this incarnation (never cfg.Key, which every prover holds) and
	// never persisted; Restore swaps in a fresh one. A challenge is
	// therefore redeemable only at the server, and in the incarnation,
	// that minted it.
	chal atomic.Pointer[verifier.Challenger]

	imageFallbacks atomic.Uint64 // restored bindings to unknown images, remapped to default
	challenges     atomic.Uint64
	verdicts       [len(verifier.Tally{})]atomic.Uint64 // outcomes, one counter per verifier.Reason
}

// stripe owns the freshness state of the provers that hash to it.
// Every table touch happens under mu; nothing slower than a table
// probe ever does.
type stripe struct {
	mu      sync.Mutex
	provers *proverTable // durable freshness records and their dirty set; Restore swaps it whole
}

// lookup returns the prover's freshness record and its ID, nil and 0 if
// the stripe holds none. h is name's hash from stripeHash. Caller holds
// st.mu.
func (st *stripe) lookup(name string, h uint64) (*proverRec, uint32) {
	if id := st.provers.Find(name, h); id != 0 {
		return &st.provers.At(id).Val, id
	}
	return nil, 0
}

// rec is lookup that creates the record (enrolling the prover) on
// first contact.
func (st *stripe) rec(name string, h uint64) (*proverRec, uint32) {
	id := st.provers.Find(name, h)
	if id == 0 {
		id = st.provers.Add(name, h)
	}
	return &st.provers.At(id).Val, id
}

// Serve binds a new Server to tr as "rattd" and starts answering.
func Serve(tr transport.Transport, cfg Config) (*Server, error) {
	if cfg.Images == nil && (len(cfg.Ref) == 0 || cfg.BlockSize <= 0 || len(cfg.Ref)%cfg.BlockSize != 0) {
		return nil, fmt.Errorf("rattd: golden image of %d bytes is not a positive multiple of block size %d",
			len(cfg.Ref), cfg.BlockSize)
	}
	if cfg.Images != nil && cfg.Images.Default().Name == "" {
		return nil, fmt.Errorf("rattd: image registry holds no default image")
	}
	if cfg.Key == nil {
		cfg.Key = DefaultKey
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = 4 * runtime.GOMAXPROCS(0)
	}
	nstripes := 1 << bits.Len(uint(cfg.Stripes-1)) // next power of two
	images := cfg.Images
	if images == nil {
		// Single-image fleet: the Ref becomes a one-entry registry, so
		// the verify path is uniform and a later Rotate works on any
		// server.
		images = verifier.NewImageSet(verifier.ImageSetConfig{KeepEpochs: KeepEpochs})
		if _, err := images.Add(DefaultImageName, verifier.ImageOf(cfg.Ref, cfg.BlockSize)); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:     cfg,
		tr:      tr,
		images:  images,
		defName: images.Default().Name,
		nonces:  verifier.NewNonceMemo(cfg.Key, KeepEpochs),
		stripes: make([]*stripe, nstripes),
		mask:    uint64(nstripes - 1),
		seed:    maphash.MakeSeed(),
	}
	for i := range s.stripes {
		s.stripes[i] = &stripe{provers: newProverTable()}
	}
	s.chal.Store(verifier.NewChallenger(nil, labelChallenge))
	// The zero-copy receive form: over Net, report fields arrive as
	// views into the transport's receive buffer and are consumed before
	// the handler returns (every retained value below — nonces,
	// counters, prover names — is owned or interned), so ingesting a
	// collection costs no per-report copies.
	if err := tr.BindFrames(endpoint, s.onFrame); err != nil {
		return nil, err
	}
	return s, nil
}

// Close unbinds the daemon from its transport. The transport itself is
// the caller's to close (it may host other endpoints).
func (s *Server) Close() { s.tr.Unbind(endpoint) }

// Stripes returns the server's stripe count (diagnostics).
func (s *Server) Stripes() int { return len(s.stripes) }

// Counts returns a snapshot of outcome counters.
func (s *Server) Counts() Counts {
	c := Counts{Challenges: s.challenges.Load()}
	for r := range s.verdicts {
		c.Verdicts.Add(verifier.Reason(r), s.verdicts[r].Load())
	}
	return c.Summed()
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
// a restarted daemon keeps rejecting replays and accepting fresh
// counters without the fleet re-registering.
func (s *Server) Enrolled() int { return s.sumTables(func(t *proverTable) int { return int(t.Len()) }) }

// DirtyCount is the number of provers whose freshness state changed
// since the last checkpoint — what the next delta checkpoint would
// have to write.
func (s *Server) DirtyCount() int64 {
	return int64(s.sumTables(func(t *proverTable) int { return len(t.dirty) }))
}

// sumTables sums f over the stripes' tables, one stripe lock at a time.
// Its callers (stats lines, the checkpointer's tick) are never on the
// ingest path.
func (s *Server) sumTables(f func(*proverTable) int) int {
	n := 0
	for _, st := range s.stripes {
		st.mu.Lock()
		n += f(st.provers)
		st.mu.Unlock()
	}
	return n
}

// stripeFor picks the lock stripe owning a prover's freshness state.
// The FNV-1a name hash is finished with splitmix64, so the low bits
// the mask keeps are well mixed. It is unseeded, so a
// prover sits on the same stripe of every server with as many stripes,
// which keeps their checkpoints byte for byte comparable.
func (s *Server) stripeFor(name string) *stripe {
	return s.stripes[mix64(fnv64a(name))&s.mask]
}

// stripeHash is stripeFor that also returns the hash that files the
// prover within the stripe's proverTable. That hash is seeded per
// server: names arrive off the wire before anything about them
// verifies, and an unseeded hash would let a sender pick names that
// pile into one probe run.
func (s *Server) stripeHash(name string) (*stripe, uint64) {
	return s.stripeFor(name), maphash.String(s.seed, name)
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
	outcomes := uint64(n)
	if kind == transport.KindReport {
		outcomes = 1
	}
	s.verdicts[why].Add(outcomes)
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
// unstored; ri is rec's ID. Returns the effective name and false on
// a binding mismatch. Caller holds st.mu.
func (st *stripe) bindImage(s *Server, rec *proverRec, ri uint32, name string) (string, bool) {
	bound := ""
	if rec != nil && rec.image != 0 {
		bound = st.provers.images[rec.image]
	}
	switch {
	case name == "":
		return bound, true
	case name == s.defName:
		// An explicit claim of the default image is never stored (the
		// default binding IS image index 0, the empty name) but still
		// conflicts with a binding to any other image.
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
		st.provers.bind(rec, name)
		st.provers.markDirty(rec, ri)
	}
	return name, true
}

// handleHello answers a prover's hello with a fresh challenge nonce
// (step 1 of the §2.2 timeline, prover-initiated so it traverses
// NATs). The nonce proves itself, so the hello touches no stripe.
func (s *Server) handleHello(from string) {
	nonce := s.chal.Load().Issue(from)
	s.challenges.Add(1)
	s.tr.Send(transport.Msg{From: endpoint, To: from, Kind: transport.KindChallenge, Nonce: nonce})
}

// handleReport validates a challenge response and answers with a
// verdict. One stripe visit checks the binding; the challenge is
// redeemed, and the tag verified, off-lock. A redeemed nonce cannot
// recur, so the tag is verified without being cached.
func (s *Server) handleReport(from string, id verifier.ImageID, reports []core.Report) {
	st, h := s.stripeHash(from)
	st.mu.Lock()
	rec, ri := st.lookup(from, h)
	name, bound := st.bindImage(s, rec, ri, id.Name)
	st.mu.Unlock()
	var nonce verifier.Challenge
	if len(reports) > 0 {
		nonce = reports[0].Nonce
	}
	why := verifier.ReasonImageMismatch
	var err error
	if bound {
		why = s.chal.Load().Open(from, len(reports), nonce)
	}
	if why == verifier.ReasonOK {
		x := verifier.Expect{Nonce: nonce}
		s.setTags(&x.Tags, name, id.Version, true)
		var buf [4]verifier.Reason // verdict scratch: one a measurement round
		_, why, err = verifier.Judge(buf[:0], verifier.SMART, nil, reports, &x)
	}
	s.verdicts[why].Add(1)
	s.verdict(from, "report", len(reports), why, err)
}

// verdict answers a bundle with its first failure (or OK).
func (s *Server) verdict(from, what string, n int, why verifier.Reason, err error) {
	ok, reason := why == verifier.ReasonOK, why.Text(err)
	if s.cfg.Logf != nil { // guarded: the variadic boxing allocates
		s.cfg.Logf("%s %s (%d reports): ok=%v %s", what, from, n, ok, reason)
	}
	s.tr.Send(transport.Msg{From: endpoint, To: from, Kind: transport.KindVerdict, OK: ok, Reason: reason})
}

// ingestScratch holds the reusable buffers of one bundle's ingest:
// pooled so the steady-state verify path allocates nothing.
type ingestScratch struct {
	x     verifier.Expect   // what the bundle is judged against
	nonce []byte            // derived SeED nonces' bytes
	seed  []byte            // derived SeED schedule seed
	name  []byte            // prover name bytes (string→[]byte staging)
	why   []verifier.Reason // the bundle's verdicts, one per report
}

var scratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// handleCollection validates an ERASMUS measurement history. Like a
// SeED bundle it visits its prover's stripe twice: a snapshot (locked)
// binds the image, enrols and copies the 48-byte verifier.Freshness out,
// verifier.Judge runs on the copy (no lock), and a commit (locked)
// replays CommitErasmus on the real record for the reports that came
// out clean. Judging a copy is sound because the commit re-checks and
// Freshness only grows: whatever a racing bundle committed since the
// snapshot can only turn a clean report into a replay, which the
// replayed commit reports, so exactly one bundle wins each counter. The
// verdict carries the bundle's first failure in bundle order, whichever
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
	st, h := s.stripeHash(from)

	// Snapshot: one probe for the record, enrolling on first contact,
	// then the binding on it — a mismatch needs a stored binding, hence
	// a record that already existed, so a mismatched image claim still
	// rejects the whole bundle (every report counted) before any state
	// moves. Then the prover gets its window, so a restarted daemon's
	// checkpoint covers provers whose every report was rejected too
	// (enrolled, just never clean). The record pointer is stable (records
	// never move within their table), so the commit visit reuses it.
	st.mu.Lock()
	rec, ri := st.rec(from, h)
	tbl := st.provers
	name, bound := st.bindImage(s, rec, ri, id.Name)
	if !bound {
		st.mu.Unlock()
		sc.why = sc.why[:0]
		s.rejectBundle(from, transport.KindCollection, len(reports), verifier.ReasonImageMismatch)
		return verifier.ReasonImageMismatch
	}
	if !rec.has(recWin) {
		rec.state |= recWin
		st.provers.markDirty(rec, ri)
	}
	fresh := rec.fresh
	st.mu.Unlock()

	// Judge, under the daemon's zero CollectionPolicy (no cadence rule).
	x := &sc.x
	s.setTags(&x.Tags, name, id.Version, false)
	x.Memo = s.nonces
	why, first, firstErr := verifier.Judge(sc.why[:0], verifier.ERASMUS, &fresh, reports, x)
	sc.why = why
	missed := x.Missed // some nonce was not in the memo

	// Commit.
	accepted := slices.Contains(why, verifier.ReasonOK)
	if accepted {
		st.mu.Lock()
		var lost bool // a replay became the bundle's first failure
		if accepted, lost = replay(why, reports, rec.fresh.CommitErasmus); lost {
			first, firstErr = verifier.ReasonReplay, nil
		}
		// A Restore since the snapshot swapped the table out: the record
		// is no longer the prover's, and its ID names another's.
		if accepted && st.provers == tbl {
			st.provers.markDirty(rec, ri)
		}
		st.mu.Unlock()
	}
	s.countBundle(why)
	// A bundle whose every nonce came from the memo has nothing to
	// admit. Otherwise every committed counter is offered, in bundle
	// order: Admit leaves one that is already there alone.
	if missed && accepted {
		for i, w := range why {
			if w == verifier.ReasonOK {
				s.nonces.Admit(reports[i].Counter)
			}
		}
	}
	s.verdict(from, "collection", len(reports), first, firstErr)
	return first
}

// handleSeed ingests unsolicited SeED reports under the core's rules:
// nonce bound to the prover's derived seed and counter, counters
// strictly above a per-prover watermark. SeED is non-interactive, so no
// verdict is sent back. The bundle takes the same snapshot → judge →
// commit shape as a collection; a prover not yet enrolled is judged
// against the zero record and enrolled by its first report to commit.
// The nonce is per prover and, once accepted, at or below the watermark
// for good, so the tag is verified without being cached.
func (s *Server) handleSeed(from string, id verifier.ImageID, reports []core.Report) {
	st, h := s.stripeHash(from)
	// Snapshot. The binding pass must not create the record; a first
	// named contact that never verifies clean still binds nothing.
	var fresh verifier.Freshness
	st.mu.Lock()
	rec, ri := st.lookup(from, h)
	name, bound := st.bindImage(s, rec, ri, id.Name)
	if rec != nil {
		fresh = rec.fresh
	}
	st.mu.Unlock()
	if !bound {
		s.rejectBundle(from, transport.KindSeedReport, len(reports), verifier.ReasonImageMismatch)
		return
	}

	// Judge.
	sc := scratchPool.Get().(*ingestScratch)
	sc.name = append(sc.name[:0], from...)
	sc.seed = verifier.AppendSeedFor(sc.seed[:0], s.cfg.Key, sc.name)
	x := &sc.x
	s.setTags(&x.Tags, name, id.Version, true)
	x.Memo = nil
	x.Nonces, sc.nonce = x.Nonces[:0], sc.nonce[:0]
	for i := range reports {
		at := len(sc.nonce)
		sc.nonce = core.AppendSeedNonce(sc.nonce, sc.seed, reports[i].Counter)
		x.Nonces = append(x.Nonces, sc.nonce[at:len(sc.nonce):len(sc.nonce)])
	}
	why, _, _ := verifier.Judge(sc.why[:0], verifier.SeED, &fresh, reports, x)

	// Commit; the first report to get here enrolls the prover.
	if slices.Contains(why, verifier.ReasonOK) {
		st.mu.Lock()
		rec, ri = st.rec(from, h)
		if accepted, _ := replay(why, reports, rec.fresh.CommitSeed); accepted {
			if rec.image == 0 && name != "" {
				st.provers.bind(rec, name) // enrollment-time binding
			}
			rec.state |= recSeed
			st.provers.markDirty(rec, ri)
		}
		st.mu.Unlock()
	}
	s.countBundle(why)
	if s.cfg.Logf != nil {
		for i, w := range why {
			var err error
			if w == verifier.ReasonError { // Judge keeps one error; a malformed report fails twice alike
				err = x.Tags.Err(&reports[i])
			}
			s.cfg.Logf("seed-report %s ctr=%d: ok=%v %s", from, reports[i].Counter, w == verifier.ReasonOK, w.Text(err))
		}
	}
	sc.why = why
	scratchPool.Put(sc)
}

// replay is a bundle's commit step, under the stripe lock: it commits
// on the real record the counter of each report the judge step found
// clean. A counter a racing bundle took since the snapshot turns its
// report into a replay, rewritten in why; replay reports whether any
// report still stands accepted, and whether such a replay is the
// bundle's first failure in bundle order.
func replay(why []verifier.Reason, reports []core.Report, commit func(ctr uint64) verifier.Reason) (accepted, first bool) {
	failed := false // a report before i failed
	for i, w := range why {
		if w == verifier.ReasonOK {
			if w = commit(reports[i].Counter); w != verifier.ReasonOK {
				why[i] = w
				first = first || !failed
			} else {
				accepted = true
			}
		}
		failed = failed || w != verifier.ReasonOK
	}
	return accepted, first
}

var _ [64 - len(verifier.Tally{})]struct{} // countBundle's mask has a bit per verdict

// countBundle adds a bundle's final verdicts to the counters: one
// atomic add per distinct verdict, so an all-clean bundle costs one.
func (s *Server) countBundle(why []verifier.Reason) {
	var done uint64 // bit r: verdict r is counted
	for i, w := range why {
		if done&(1<<w) != 0 {
			continue
		}
		done |= 1 << w
		n := uint64(1)
		for _, x := range why[i+1:] {
			if x == w {
				n++
			}
		}
		s.verdicts[w].Add(n)
	}
}

// setTags makes t the tag source of one bundle under the image the
// bundle resolved to (name at version), writing only the fields a
// bundle sets: a Tags is 144 bytes, and copying a whole one into the
// pooled scratch (a bulk write barrier) cost a steady bundle ~20 ns.
// The daemon serves uniform fleets, so a report with per-device regions
// or data blocks is refused (nil Each: ErrRegionUnserved). once says
// the nonces cannot recur, so the tags are computed and not cached. The
// registry and every batch's tag cache are read-mostly concurrent, so a
// bundle is judged under no lock. A version retired past its grace is
// ErrStaleImage, never a spurious pass.
func (s *Server) setTags(t *verifier.Tags, name string, version uint32, once bool) {
	t.Key, t.Images, t.ID, t.Once = s.cfg.Key, s.images, verifier.ImageID{Name: name, Version: version}, once
}

// SeedFor derives a prover's SeED schedule seed from the shared key
// and its name; daemon and prover compute it independently.
func SeedFor(key []byte, prover string) []byte {
	return verifier.AppendSeedFor(nil, key, []byte(prover))
}
