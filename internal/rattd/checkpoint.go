package rattd

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"

	"saferatt/internal/verifier"
)

// Checkpoint is a Server's durable fleet state: the enrollment and
// freshness bookkeeping (which provers exist and which of their
// counters have been consumed). Restoring it into a fresh Server
// resumes the daemon exactly where it died — enrolled provers keep
// verifying without re-registering, and previously-accepted reports
// still read as replays.
//
// Deliberately absent: the SMART challenge key and window (a restored
// server draws a fresh key, so no challenge minted before the restore
// redeems after it; the prover's own timeout re-initiates the round,
// and an unanswerable challenge is not a safety problem), the
// verifier.Batch expected-tag cache
// (pure derived state, rebuilt on demand), and diagnostic Counts.
type Checkpoint struct {
	// Lease and NonceCtr are reserved header fields: the codec carries
	// them, a Server writes them as zero, and Restore and
	// Server.Checkpoint ignore them (see the format comment below).
	Lease    EpochLease
	NonceCtr uint64
	// Erasmus maps prover -> ERASMUS replay window (watermark +
	// bitmap). Fixed size per prover, so the checkpoint — like the
	// live state — is O(provers), not O(reports ever accepted).
	Erasmus map[string]DedupWindow
	// Seed maps prover -> highest accepted SeED counter.
	Seed map[string]uint64
	// Images maps prover -> bound image name, for provers bound to a
	// non-default image. Restore remaps names unknown to the target
	// registry to the default image and counts the fallback.
	Images map[string]string

	// Delta marks a delta file: the prover maps are an overlay of
	// only the records dirtied since the previous snapshot in the
	// chain, not the whole fleet.
	Delta bool
	// ChainID identifies the chain this file belongs to (drawn at
	// random for every base); Seq is the file's position in it — 0 for
	// the base, 1.. for the deltas. A delta applies only to the base
	// with the same ChainID, at exactly the next Seq.
	ChainID uint64
	Seq     uint32
}

// EpochLease is the header's reserved lease group. It once held a
// shard's lease of the challenge-counter space; challenge nonces are now
// unique by their per-incarnation key, and the group is written as zero.
type EpochLease struct {
	Shard int
	Epoch uint64
	Lo    uint64
	Hi    uint64
}

// Checkpoint wire format, versioned like the transport codec so
// mixed-version restarts fail loudly instead of misparsing:
//
//	magic "RC" | u8 version | u8 flags (bit0 = delta)
//	u64 chainID | u32 seq
//	u32 lease.Shard | u64 lease.Epoch | u64 lease.Lo | u64 lease.Hi
//	u64 nonceCtr
//	a record stream, then u8 0 end marker | u32 record count:
//	    window record:    u8 1 | u16 len | name | u64 top | DedupWords × u64 bits
//	    watermark record: u8 2 | u16 len | name | u64 lastCounter
//	    image record:     u8 3 | u16 len | name | u8 len | image name
//
// The typed record stream lets a snapshot be *streamed*: the server
// encodes stripe by stripe (records sorted within a stripe, per-prover
// records adjacent) through a pooled scratch buffer, never
// materializing the fleet, and a *delta* file carries only the records
// dirtied since the previous snapshot. The trailing record count
// doubles as a torn-write detector: strict decode rejects any
// mismatch, and the chain reader (DecodeChain) can fall back to the
// last fully-parsed record of a torn delta tail. Provers bound to the
// default image write no image record. One version exists; any other
// version byte is refused by name.
//
// The 36 bytes from lease.Shard through nonceCtr are reserved: they
// held the challenge-counter lease, which nothing reads any more. A
// Server writes them as zero; the codec still round-trips whatever a
// Checkpoint value carries there, because the benchmark module builds
// Checkpoints that name both fields. They go with the next version
// bump, once nothing outside this package names them.
//
// Encoding is deterministic for a given encoder (sorted iteration;
// windows kept in canonical form with out-of-range bits zero). The
// decoder does not require sortedness — the streaming encoder's
// stripe order depends on the stripe count — but it rejects
// duplicated records, truncation, trailing bytes, unknown flags, and
// lying counts outright.
const (
	checkpointMagic0  = 'R'
	checkpointMagic1  = 'C'
	CheckpointVersion = 4

	cpFlagDelta = 0x01 // file is a delta, not a full snapshot

	cpRecEnd    = 0 // end of record stream, followed by u32 count
	cpRecWindow = 1 // ERASMUS dedup window
	cpRecSeed   = 2 // SeED watermark
	cpRecImage  = 3 // prover→image binding

	// cpFlushBytes bounds the encoder's scratch buffer: the streaming
	// paths hand the buffer to the io.Writer whenever it crosses this
	// size, so encoding a million-prover stripe costs O(flush window),
	// not O(stripe bytes).
	cpFlushBytes = 64 << 10
)

// cpScratch is the pooled working set of one encode: the byte buffer
// records are staged in and the copy/sort slices. Pooled so periodic
// checkpointing settles into zero steady-state allocation.
type cpScratch struct {
	buf  []byte
	keys []string
	recs []proverEntry // one stripe's records, copied out under its lock
}

var cpScratchPool = sync.Pool{New: func() any { return new(cpScratch) }}

// SnapshotOptions selects what Server.WriteCheckpoint emits.
type SnapshotOptions struct {
	// Delta writes only the provers dirtied since the last snapshot
	// (full or delta) instead of the whole fleet.
	Delta bool
	// ChainID / Seq are stamped into the header so restore can match
	// deltas to their base. A base writes (id, 0); its deltas write
	// (id, 1), (id, 2), ...
	ChainID uint64
	Seq     uint32
}

// SnapshotStats reports what a WriteCheckpoint call emitted.
type SnapshotStats struct {
	Provers int   // prover entries written
	Records int   // typed records written (window + watermark)
	Bytes   int64 // encoded bytes handed to the writer
}

// WriteCheckpoint streams the server's fleet state to w —
// the persistence hot path. It walks stripes one at a time, holding
// only that stripe's lock while copying its fixed-size records into
// pooled scratch; sorting and encoding run off-lock, and the buffer
// is flushed to w every cpFlushBytes. Ingest on the other stripes
// never stalls, and per-prover consistency is exact because one
// stripe owns each prover (a commit racing the walk lands wholly in
// this snapshot or wholly in the dirty set of the next).
//
// Every call — full or delta — resets the dirty tracking it
// consumed: the next delta is relative to this snapshot. If the
// writer fails, records cleared from stripes already walked are NOT
// re-marked; the caller must follow up with a full snapshot (the
// background Checkpointer does exactly that).
//
// Safe to call while the server is serving; concurrent calls are not
// useful (each would consume the other's dirty set) but not unsafe.
func (s *Server) WriteCheckpoint(w io.Writer, o SnapshotOptions) (SnapshotStats, error) {
	var stats SnapshotStats
	sc := cpScratchPool.Get().(*cpScratch)
	defer func() {
		sc.buf = sc.buf[:0]
		sc.recs = sc.recs[:0]
		cpScratchPool.Put(sc)
	}()

	hdr := Checkpoint{Delta: o.Delta, ChainID: o.ChainID, Seq: o.Seq}
	buf := hdr.appendHeader(sc.buf[:0])
	cw := &countingWriter{w: w}

	for _, st := range s.stripes {
		recs := sc.recs[:0]
		st.mu.Lock()
		t := st.provers
		// Size the copy buffer exactly before appending: growing a
		// multi-megabyte slice through append's growth curve would
		// churn several times the final size in garbage per snapshot.
		need := int(t.Len())
		if o.Delta {
			need = len(t.dirty)
		}
		if cap(recs) < need {
			recs = make([]proverEntry, 0, need)
		}
		if o.Delta {
			for _, id := range t.dirty {
				recs = append(recs, *t.At(id))
			}
		} else {
			for id := uint32(1); id <= t.Len(); id++ {
				recs = append(recs, *t.At(id))
			}
		}
		// The image table is append-only: the names these records index
		// stay where they are once the lock drops.
		images := t.images
		// Take the dirty set: commits after this point mark the next
		// delta.
		for _, id := range t.dirty {
			t.At(id).Val.state &^= recDirty
		}
		t.dirty = t.dirty[:0]
		st.mu.Unlock()

		// Records sit in enrolment order; sorting by name keeps equal
		// state writing equal bytes whatever order provers came in.
		sort.Sort(recsByName(recs))
		for i := range recs {
			name, r := recs[i].Key, &recs[i].Val
			if r.has(recWin) {
				buf = appendWindowRec(buf, name, &r.fresh.Window)
				stats.Records++
			}
			if r.has(recSeed) {
				buf = appendSeedRec(buf, name, r.fresh.SeedLast)
				stats.Records++
			}
			if r.image != 0 {
				buf = appendImageRec(buf, name, images[r.image])
				stats.Records++
			}
			stats.Provers++
			if len(buf) >= cpFlushBytes {
				if _, err := cw.Write(buf); err != nil {
					sc.recs = recs
					return stats, err
				}
				buf = buf[:0]
			}
		}
		sc.recs = recs // keep the grown backing array pooled
	}

	buf = append(buf, cpRecEnd)
	buf = binary.BigEndian.AppendUint32(buf, uint32(stats.Records))
	if _, err := cw.Write(buf); err != nil {
		sc.buf = buf
		return stats, err
	}
	sc.buf = buf
	stats.Bytes = cw.n
	return stats, nil
}

// Checkpoint snapshots the server's fleet state into a materialized
// Checkpoint — the diagnostic / in-process path (E17's binding count,
// tests). Unlike WriteCheckpoint it does not consume the dirty
// tracking, so it never perturbs the background checkpointer's delta
// chain. Each stripe is locked in turn, so the snapshot is
// per-stripe consistent (a bundle racing the snapshot lands wholly
// in or wholly out of its prover's entry).
func (s *Server) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Erasmus: make(map[string]DedupWindow),
		Seed:    make(map[string]uint64),
	}
	for _, st := range s.stripes {
		st.mu.Lock()
		t := st.provers
		for id := uint32(1); id <= t.Len(); id++ {
			e := t.At(id)
			name, r := e.Key, &e.Val
			if r.has(recWin) {
				cp.Erasmus[name] = r.fresh.Window
			}
			if r.has(recSeed) {
				cp.Seed[name] = r.fresh.SeedLast
			}
			if r.image != 0 {
				if cp.Images == nil {
					cp.Images = map[string]string{}
				}
				cp.Images[name] = t.images[r.image]
			}
		}
		st.mu.Unlock()
	}
	return cp
}

// Restore installs a checkpoint into the server, replacing its fleet
// state wholesale. It draws a fresh challenge key, so no challenge
// issued before the restore is redeemed after it (provers re-initiate
// on their own timeout), and dirty tracking is reset —
// restored state is by definition what the disk already holds, so
// the next delta starts empty. Restore is meant for a just-(re)started
// server; it locks stripe by stripe, so traffic racing the restore sees
// either old or new state per prover.
func (s *Server) Restore(cp *Checkpoint) {
	s.chal.Store(verifier.NewChallenger(nil, labelChallenge))
	for _, st := range s.stripes {
		st.mu.Lock()
		st.provers = newProverTable() // with it goes the dirty set
		st.mu.Unlock()
	}
	for p, w := range cp.Erasmus {
		st, h := s.stripeHash(p)
		st.mu.Lock()
		rec, _ := st.rec(p, h)
		rec.state |= recWin
		rec.fresh.Window = w
		st.mu.Unlock()
	}
	for p, last := range cp.Seed {
		st, h := s.stripeHash(p)
		st.mu.Lock()
		rec, _ := st.rec(p, h)
		rec.state |= recSeed
		rec.fresh.SeedLast = last
		st.mu.Unlock()
	}
	for p, img := range cp.Images {
		// A binding naming an image this registry does not hold — a
		// checkpoint from a differently-provisioned daemon, or a
		// registry that shrank — falls back to the default image and is
		// counted; the prover re-binds on its next named contact.
		if img == s.defName {
			img = ""
		} else if img != "" && !s.images.Has(img) {
			s.imageFallbacks.Add(1)
			img = ""
		}
		if img == "" {
			continue
		}
		st, h := s.stripeHash(p)
		st.mu.Lock()
		rec, _ := st.rec(p, h)
		st.provers.bind(rec, img)
		st.mu.Unlock()
	}
}

// EncodeTo serializes a materialized checkpoint through a
// pooled scratch buffer, flushing to w every cpFlushBytes. Returns
// the bytes written. Iteration is sorted (windows first, then
// watermarks), so equal structs always yield equal bytes.
func (cp *Checkpoint) EncodeTo(w io.Writer) (int64, error) {
	sc := cpScratchPool.Get().(*cpScratch)
	cw := &countingWriter{w: w}
	buf, keys := cp.appendHeader(sc.buf[:0]), sc.keys
	defer func() { // keep the grown backing arrays pooled
		sc.buf, sc.keys = buf[:0], keys[:0]
		cpScratchPool.Put(sc)
	}()
	n := 0
	// flush counts the record just staged and hands the buffer to w
	// once it crosses the flush window.
	flush := func() error {
		n++
		if len(buf) < cpFlushBytes {
			return nil
		}
		_, err := cw.Write(buf)
		buf = buf[:0]
		return err
	}
	keys = sortedKeys(keys, cp.Erasmus)
	for _, p := range keys {
		win := cp.Erasmus[p]
		buf = appendWindowRec(buf, p, &win)
		if err := flush(); err != nil {
			return cw.n, err
		}
	}
	keys = sortedKeys(keys, cp.Seed)
	for _, p := range keys {
		buf = appendSeedRec(buf, p, cp.Seed[p])
		if err := flush(); err != nil {
			return cw.n, err
		}
	}
	keys = sortedKeys(keys, cp.Images)
	for _, p := range keys {
		buf = appendImageRec(buf, p, cp.Images[p])
		if err := flush(); err != nil {
			return cw.n, err
		}
	}
	buf = append(buf, cpRecEnd)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	_, err := cw.Write(buf)
	return cw.n, err
}

// sortedKeys refills dst with m's keys in ascending order, sized once
// (growing a fleet-sized slice through append would churn several times
// its final size in garbage).
func sortedKeys[V any](dst []string, m map[string]V) []string {
	if dst = dst[:0]; cap(dst) < len(m) {
		dst = make([]string, 0, len(m))
	}
	for k := range m {
		dst = append(dst, k)
	}
	sort.Strings(dst)
	return dst
}

// appendHeader writes the header fields shared by full and delta
// files.
func (cp *Checkpoint) appendHeader(b []byte) []byte {
	flags := byte(0)
	if cp.Delta {
		flags |= cpFlagDelta
	}
	b = append(b, checkpointMagic0, checkpointMagic1, CheckpointVersion, flags)
	b = binary.BigEndian.AppendUint64(b, cp.ChainID)
	b = binary.BigEndian.AppendUint32(b, cp.Seq)
	b = binary.BigEndian.AppendUint32(b, uint32(cp.Lease.Shard))
	b = binary.BigEndian.AppendUint64(b, cp.Lease.Epoch)
	b = binary.BigEndian.AppendUint64(b, cp.Lease.Lo)
	b = binary.BigEndian.AppendUint64(b, cp.Lease.Hi)
	b = binary.BigEndian.AppendUint64(b, cp.NonceCtr)
	return b
}

func appendWindowRec(b []byte, name string, w *DedupWindow) []byte {
	b = append(b, cpRecWindow)
	b = appendName(b, name)
	b = binary.BigEndian.AppendUint64(b, w.Top)
	for _, word := range w.Bits {
		b = binary.BigEndian.AppendUint64(b, word)
	}
	return b
}

func appendSeedRec(b []byte, name string, last uint64) []byte {
	b = append(b, cpRecSeed)
	b = appendName(b, name)
	return binary.BigEndian.AppendUint64(b, last)
}

func appendImageRec(b []byte, name, image string) []byte {
	b = append(b, cpRecImage)
	b = appendName(b, name)
	if len(image) > 0xff {
		image = image[:0xff]
	}
	b = append(b, byte(len(image)))
	return append(b, image...)
}

// DecodeCheckpoint parses an encoded checkpoint, strictly: any version
// but CheckpointVersion, unknown flags, truncation, trailing bytes,
// duplicated records, and lying counts are all errors.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	return decodeStream(b, false)
}

// decodeStream parses a checkpoint file. In lenient mode — used only by
// DecodeChain to salvage a torn delta tail — a malformed record stream
// is not an error: decoding stops at the last fully-parsed record and
// returns that prefix. The header must be intact either way.
func decodeStream(b []byte, lenient bool) (*Checkpoint, error) {
	if len(b) < 4 || b[0] != checkpointMagic0 || b[1] != checkpointMagic1 {
		return nil, fmt.Errorf("rattd: not a checkpoint (bad magic)")
	}
	if b[2] != CheckpointVersion {
		return nil, fmt.Errorf("rattd: unsupported checkpoint version %d (this build reads only %d)", b[2], CheckpointVersion)
	}
	if b[3]&^cpFlagDelta != 0 {
		return nil, fmt.Errorf("rattd: checkpoint with unknown flags 0x%02x", b[3])
	}
	d := cpDecoder{b: b, off: 4}
	cp := &Checkpoint{
		Delta:   b[3]&cpFlagDelta != 0,
		Erasmus: map[string]DedupWindow{},
		Seed:    map[string]uint64{},
	}
	cp.ChainID = d.u64()
	cp.Seq = d.u32()
	cp.Lease.Shard = int(d.u32())
	cp.Lease.Epoch = d.u64()
	cp.Lease.Lo = d.u64()
	cp.Lease.Hi = d.u64()
	cp.NonceCtr = d.u64()
	if d.err != nil {
		return nil, d.err // header torn: nothing salvageable
	}
	n := 0
	for {
		t := d.u8()
		if d.err != nil {
			break
		}
		if t == cpRecEnd {
			want := d.u32()
			if d.err != nil {
				break
			}
			if int(want) != n {
				d.err = fmt.Errorf("rattd: checkpoint trailer claims %d records, stream holds %d", want, n)
				break
			}
			if d.off != len(b) {
				d.err = fmt.Errorf("rattd: %d trailing bytes after checkpoint", len(b)-d.off)
				break
			}
			return cp, nil
		}
		switch t {
		case cpRecWindow:
			p := d.name()
			var w DedupWindow
			w.Top = d.u64()
			for j := range w.Bits {
				w.Bits[j] = d.u64()
			}
			if d.err != nil {
				break
			}
			if _, dup := cp.Erasmus[p]; dup {
				d.err = fmt.Errorf("rattd: duplicated window record for %q", p)
				break
			}
			cp.Erasmus[p] = w
			n++
		case cpRecSeed:
			p := d.name()
			last := d.u64()
			if d.err != nil {
				break
			}
			if _, dup := cp.Seed[p]; dup {
				d.err = fmt.Errorf("rattd: duplicated watermark record for %q", p)
				break
			}
			cp.Seed[p] = last
			n++
		case cpRecImage:
			p := d.name()
			img := d.str8()
			if d.err != nil {
				break
			}
			if len(img) == 0 {
				// The canonical encoding of "bound to the default image"
				// is no record at all.
				d.err = fmt.Errorf("rattd: empty image record for %q", p)
				break
			}
			if _, dup := cp.Images[p]; dup {
				d.err = fmt.Errorf("rattd: duplicated image record for %q", p)
				break
			}
			if cp.Images == nil {
				cp.Images = map[string]string{}
			}
			cp.Images[p] = img
			n++
		default:
			d.err = fmt.Errorf("rattd: unknown checkpoint record type %d at offset %d", t, d.off-1)
		}
		if d.err != nil {
			break
		}
	}
	if lenient {
		// The maps hold exactly the fully-parsed prefix: each record
		// is committed only after every one of its fields decoded.
		return cp, nil
	}
	return nil, d.err
}

// ChainStats reports how a chain restore went.
type ChainStats struct {
	// Applied counts delta files merged into the base (a truncated
	// final delta counts: its valid prefix was applied).
	Applied int
	// Truncated reports that the last applied delta was torn and only
	// its valid record prefix was used.
	Truncated bool
	// Dropped counts delta files ignored — stale chain IDs, sequence
	// gaps, or files after a torn delta.
	Dropped int
}

// DecodeChain restores fleet state from a checkpoint chain: a base
// snapshot plus delta files in sequence order. Deltas overlay the base
// per prover record.
//
// The chain degrades instead of failing: a delta with a stale chain
// ID, the wrong sequence number, or a torn header is dropped along
// with everything after it, and a delta whose record stream is torn
// mid-file contributes its valid prefix and ends the chain. Only an
// unreadable *base* is a hard error — the base is written by atomic
// rename, so a torn base means real corruption, not a crash window.
func DecodeChain(base []byte, deltas ...[]byte) (*Checkpoint, ChainStats, error) {
	cp, err := DecodeCheckpoint(base)
	if err != nil {
		return nil, ChainStats{}, err
	}
	if cp.Delta {
		return nil, ChainStats{}, fmt.Errorf("rattd: chain base is a delta file")
	}
	var st ChainStats
	want := cp.Seq + 1
	for i, db := range deltas {
		dcp, derr := DecodeCheckpoint(db)
		torn := false
		if derr != nil {
			// A torn tail — the crash-mid-write shape — still names its
			// chain position in the (intact) header; salvage the prefix
			// if and only if it is the next link of this chain.
			if pcp, perr := decodeStream(db, true); perr == nil &&
				pcp.Delta && pcp.ChainID == cp.ChainID && pcp.Seq == want {
				dcp, torn = pcp, true
			} else {
				st.Dropped = len(deltas) - i
				return cp, st, nil
			}
		}
		if !dcp.Delta || dcp.ChainID != cp.ChainID || dcp.Seq != want {
			st.Dropped = len(deltas) - i
			return cp, st, nil
		}
		applyDelta(cp, dcp)
		st.Applied++
		want++
		if torn {
			st.Truncated = true
			st.Dropped = len(deltas) - i - 1
			return cp, st, nil
		}
	}
	return cp, st, nil
}

// applyDelta overlays a delta's records onto an accumulated state.
func applyDelta(cp, d *Checkpoint) {
	for p, w := range d.Erasmus {
		cp.Erasmus[p] = w
	}
	for p, last := range d.Seed {
		cp.Seed[p] = last
	}
	for p, img := range d.Images {
		if cp.Images == nil {
			cp.Images = map[string]string{}
		}
		cp.Images[p] = img
	}
	cp.Seq = d.Seq
}

func appendName(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// countingWriter counts bytes handed to the underlying writer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// cpDecoder is a tiny sticky-error cursor over checkpoint bytes.
type cpDecoder struct {
	b   []byte
	off int
	err error
}

func (d *cpDecoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.b)-d.off < n {
		d.err = fmt.Errorf("rattd: truncated checkpoint at offset %d", d.off)
		return false
	}
	return true
}

func (d *cpDecoder) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *cpDecoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *cpDecoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *cpDecoder) str8() string {
	n := int(d.u8())
	if !d.need(n) {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *cpDecoder) name() string {
	if !d.need(2) {
		return ""
	}
	n := int(binary.BigEndian.Uint16(d.b[d.off:]))
	d.off += 2
	if !d.need(n) {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}
