package transport

import (
	"encoding/binary"
	"fmt"

	"saferatt/internal/core"
	"saferatt/internal/sim"
)

// Frame is the zero-copy view form of one decoded wire frame. Where
// Msg owns every byte it holds, a Frame decoded by DecodeFrameInto
// only *borrows*: Nonce, report nonces/tags and report data blocks
// alias the receive buffer the frame was decoded from, and From/To/
// mechanism/scheme/image strings come from the process-wide interning
// tables (stable, but shared). That is what makes the decode
// allocation-free.
//
// # Ownership contract
//
// A Frame's views are valid only until the receive buffer is reused:
// for frames delivered through Net.BindFrames, that means until the
// handler returns; for DecodeFrameInto callers, until buf's next
// write. A consumer that needs anything beyond that point must detach
// first: Msg gives an owning Msg. Interned strings (From, To, report
// Mechanism/Scheme) are immutable and safe to retain as-is; only
// []byte fields are borrowed.
type Frame struct {
	// Ack marks an acknowledgment frame: only ReqID is meaningful.
	Ack bool
	// Batch marks a multi-message batch frame: Sub holds the decoded
	// sub-frames (each a full data-frame view), and the envelope
	// fields below are not meaningful except ReqID, which identifies
	// and acknowledges the whole datagram.
	Batch bool

	ReqID uint64
	Kind  Kind
	From  string // interned
	To    string // interned
	// fromID is From's interned ID (0 when the interner refused it, and
	// on every frame not decoded from the wire): what dedup and Net's
	// routes key on.
	fromID uint32
	// Image is the sender's golden image id ("name" or "name@vN"),
	// interned; empty when the frame carries none.
	Image string
	// Nonce aliases the decode buffer.
	Nonce []byte
	OK    bool
	// Reason is owned (verdict reasons are rare and usually empty; an
	// empty string costs nothing).
	Reason string
	// Reports holds the decoded reports by value; their Nonce, Tag and
	// Data fields alias the decode buffer. The slice's backing array
	// is reused across decodes into the same Frame.
	Reports []core.Report
	// Sub holds a batch frame's sub-frames; backing storage is reused
	// across decodes like Reports.
	Sub []Frame
}

// reset clears f for reuse, keeping the Reports/Sub backing arrays.
func (f *Frame) reset() {
	f.Ack, f.Batch = false, false
	f.ReqID, f.Kind = 0, KindInvalid
	f.From, f.To, f.Image = "", "", ""
	f.fromID = 0
	f.Nonce = nil
	f.OK, f.Reason = false, ""
	f.Reports = f.Reports[:0]
	f.Sub = f.Sub[:0]
}

// Msg materializes an owning Msg from the frame: every borrowed byte
// slice is deep-copied, so the result stays valid after the decode
// buffer is reused. Not meaningful for Ack or Batch frames.
func (f *Frame) Msg() Msg {
	m := Msg{From: f.From, To: f.To, Kind: f.Kind, ReqID: f.ReqID, OK: f.OK, Reason: f.Reason, Image: f.Image}
	if len(f.Nonce) > 0 {
		m.Nonce = append([]byte(nil), f.Nonce...)
	}
	if len(f.Reports) > 0 {
		m.Reports = make([]*core.Report, len(f.Reports))
		for i := range f.Reports {
			m.Reports[i] = copyReport(&f.Reports[i])
		}
	}
	return m
}

// frameOfMsg wraps an owning Msg in Frame form — how Sim and Local
// serve BindFrames. The result owns its memory (it shares it with
// m, which owns it), so the usual view lifetime caveats do not apply.
func frameOfMsg(m *Msg) Frame {
	f := Frame{
		ReqID: m.ReqID, Kind: m.Kind,
		From: m.From, To: m.To, Image: m.Image, Nonce: m.Nonce,
		OK: m.OK, Reason: m.Reason,
	}
	if len(m.Reports) > 0 {
		f.Reports = make([]core.Report, 0, len(m.Reports))
		for _, r := range m.Reports {
			if r != nil {
				f.Reports = append(f.Reports, *r)
			}
		}
	}
	return f
}

// framed adapts a frame handler to a transport that delivers Msgs.
func framed(h FrameHandler) Handler {
	return func(m Msg) {
		f := frameOfMsg(&m)
		h(&f)
	}
}

// copyReport deep-copies one report's borrowed fields.
func copyReport(r *core.Report) *core.Report {
	out := *r
	if len(r.Nonce) > 0 {
		out.Nonce = append([]byte(nil), r.Nonce...)
	}
	if len(r.Tag) > 0 {
		out.Tag = append([]byte(nil), r.Tag...)
	}
	if r.Data != nil {
		out.Data = make(map[int][]byte, len(r.Data))
		for b, v := range r.Data {
			out.Data[b] = append([]byte(nil), v...)
		}
	}
	return &out
}

// DecodeFrameInto parses one frame of any type into f without copying
// payload bytes: f's views alias buf (see the Frame ownership
// contract), and f's internal backing storage is reused, so a warmed
// Frame decodes at zero allocations per call. Ack frames set f.Ack;
// batch frames set f.Batch and fill f.Sub. The same strictness rules
// as DecodeFrame apply: a frame either parses completely and
// canonically or not at all.
func DecodeFrameInto(buf []byte, f *Frame) error {
	f.reset()
	if len(buf) < headerLen {
		return fmt.Errorf("transport: frame truncated (%d bytes)", len(buf))
	}
	if buf[0] != codecMagic0 || buf[1] != codecMagic1 {
		return fmt.Errorf("transport: bad magic %#x%x", buf[0], buf[1])
	}
	if buf[2] != CodecVersion {
		return fmt.Errorf("transport: unsupported frame version %d (this build speaks only %d)", buf[2], CodecVersion)
	}
	f.ReqID = binary.BigEndian.Uint64(buf[4:12])
	switch buf[3] {
	case frameAck:
		if len(buf) != headerLen {
			return fmt.Errorf("transport: %d trailing bytes after ack", len(buf)-headerLen)
		}
		f.Ack = true
		return nil
	case frameData:
		d := decoder{b: buf, off: headerLen}
		if err := decodeBody(&d, f); err != nil {
			return err
		}
		if d.off != len(buf) {
			return fmt.Errorf("transport: %d trailing bytes", len(buf)-d.off)
		}
		return nil
	case frameBatch:
		return decodeBatch(buf, f)
	default:
		return fmt.Errorf("transport: unknown frame type %d", buf[3])
	}
}

// decodeBody parses the common data-frame body (kind, flags, names,
// payload) into f, leaving d.off at the first unconsumed byte.
func decodeBody(d *decoder, f *Frame) error {
	kind := Kind(d.u8())
	flags := d.u8()
	if flags&^(flagOK|flagImage) != 0 {
		return fmt.Errorf("transport: unknown flag bits %#x", flags)
	}
	f.Kind = kind
	f.OK = flags&flagOK != 0
	f.From, f.fromID = interned.get(d.bytes16())
	f.To, _ = interned.get(d.bytes16())
	if flags&flagImage != 0 {
		img := d.bytes8()
		if d.err == nil && len(img) == 0 {
			return fmt.Errorf("transport: image flag set with empty image id")
		}
		f.Image, _ = tokens.get(img)
	}
	switch kind {
	case KindChallenge:
		f.Nonce = d.bytes16()
	case KindVerdict:
		f.Reason = string(d.bytes16())
	case KindReport, KindCollection, KindSeedReport:
		n := int(d.u16())
		if n > maxReports {
			return fmt.Errorf("transport: report count %d exceeds limit", n)
		}
		for i := 0; i < n && d.err == nil; i++ {
			if len(f.Reports) < cap(f.Reports) {
				f.Reports = f.Reports[:len(f.Reports)+1]
				f.Reports[len(f.Reports)-1] = core.Report{}
			} else {
				f.Reports = append(f.Reports, core.Report{})
			}
			reportInto(d, &f.Reports[len(f.Reports)-1])
		}
	case KindRelease, KindCollect, KindHello:
	default:
		return fmt.Errorf("transport: unknown message kind %d", uint8(kind))
	}
	return d.err
}

// reportInto decodes one report in view form: Nonce, Tag and Data
// values alias the decoder's buffer.
func reportInto(d *decoder, r *core.Report) {
	mech, _ := tokens.get(d.bytes8())
	r.Mechanism = core.MechanismID(mech)
	r.Scheme, _ = tokens.get(d.bytes8())
	r.Nonce = d.bytes16()
	r.Round = int(int32(d.u32()))
	r.Counter = d.u64()
	r.Tag = d.bytes16()
	r.TS = sim.Time(d.u64())
	r.TE = sim.Time(d.u64())
	r.RegionStart = int(int32(d.u32()))
	r.RegionCount = int(int32(d.u32()))
	rflags := d.u8()
	if rflags&^1 != 0 && d.err == nil {
		d.err = fmt.Errorf("transport: unknown report flag bits %#x", rflags)
	}
	r.Incremental = rflags&1 != 0
	r.BlockSize = int(int32(d.u32()))
	r.NumBlocks = int(int32(d.u32()))
	n := int(d.u16())
	if n > maxDataEntry {
		d.err = fmt.Errorf("transport: data entry count %d exceeds limit", n)
		return
	}
	if d.err == nil && n > 0 {
		// Reported data blocks are the one rare shape that still
		// allocates (a fresh map per report); the fleet hot path —
		// plain tag reports — never reaches here.
		r.Data = make(map[int][]byte, n)
		prev := 0
		for i := 0; i < n && d.err == nil; i++ {
			blk := int(int32(d.u32()))
			content := d.bytes16()
			if d.err != nil {
				break
			}
			if i > 0 && blk <= prev {
				d.err = fmt.Errorf("transport: data blocks not in canonical order (%d after %d)", blk, prev)
				break
			}
			prev = blk
			r.Data[blk] = content
		}
	}
}

// The batch frame: one datagram carrying many
// messages, amortizing the per-datagram syscall and header cost across
// an ERASMUS collection sweep or a burst of coalesced small sends.
//
//	0:2   magic "RA"
//	2     version
//	3     frame type: frameBatch
//	4:12  batch request ID (big endian) — identifies and acks the
//	      whole datagram
//	12:14 u16 sub-frame count (>= 1)
//	then per sub-frame:
//	      u32 length L
//	      L bytes: u64 sub request ID, then the data-frame body
//	      (kind, flags, from, to, payload) exactly as in a data frame
//
// Decode is strictly canonical: every length must match exactly, the
// count must be at least 1 and at most maxBatchSubs, and sub-frames
// follow the same rules as standalone data frames — so re-encoding a
// decoded batch reproduces it byte for byte.

// maxBatchSubs bounds sub-frames per batch: well past what fits a
// 64 KiB datagram with real payloads, small enough that a forged count
// cannot size an allocation.
const maxBatchSubs = 1 << 12

// batchOverhead is the fixed framing cost of a batch datagram (header
// plus count), and perSubOverhead the extra bytes one sub-frame adds
// beyond appendSub's output.
const (
	batchOverhead  = headerLen + 2
	perSubOverhead = 4
)

// appendSub encodes m as one batch sub-frame (request ID + data-frame
// body), without the length prefix.
func appendSub(dst []byte, m *Msg) []byte {
	dst = be64(dst, m.ReqID)
	var flags byte
	if m.OK {
		flags |= flagOK
	}
	if m.Image != "" {
		flags |= flagImage
	}
	dst = append(dst, byte(m.Kind), flags)
	dst = appendBytes16(dst, []byte(m.From))
	dst = appendBytes16(dst, []byte(m.To))
	if m.Image != "" {
		dst = appendBytes8(dst, []byte(m.Image))
	}
	switch m.Kind {
	case KindChallenge:
		dst = appendBytes16(dst, m.Nonce)
	case KindVerdict:
		dst = appendBytes16(dst, []byte(m.Reason))
	case KindReport, KindCollection, KindSeedReport:
		dst = be16(dst, uint16(len(m.Reports)))
		for _, r := range m.Reports {
			dst = appendReport(dst, r)
		}
	}
	return dst
}

// AppendBatch encodes msgs as one batch frame under the given batch
// request ID, appended to dst.
func AppendBatch(dst []byte, reqID uint64, msgs []*Msg) []byte {
	dst = append(dst, codecMagic0, codecMagic1, CodecVersion, frameBatch)
	dst = be64(dst, reqID)
	dst = be16(dst, uint16(len(msgs)))
	for _, m := range msgs {
		lenAt := len(dst)
		dst = be32(dst, 0)
		dst = appendSub(dst, m)
		binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-perSubOverhead))
	}
	return dst
}

// decodeBatch parses a batch frame's sub-frames into f.Sub.
func decodeBatch(buf []byte, f *Frame) error {
	f.Batch = true
	d := decoder{b: buf, off: headerLen}
	n := int(d.u16())
	if n < 1 || n > maxBatchSubs {
		return fmt.Errorf("transport: batch sub-frame count %d out of range", n)
	}
	for i := 0; i < n; i++ {
		l := int(d.u32())
		if d.err != nil {
			return d.err
		}
		if l < 8 || d.off+l > len(buf) {
			return fmt.Errorf("transport: batch sub-frame %d length %d truncated", i, l)
		}
		end := d.off + l
		var sf *Frame
		if len(f.Sub) < cap(f.Sub) {
			f.Sub = f.Sub[:len(f.Sub)+1]
			sf = &f.Sub[len(f.Sub)-1]
			sf.reset()
		} else {
			f.Sub = append(f.Sub, Frame{})
			sf = &f.Sub[len(f.Sub)-1]
		}
		sf.ReqID = d.u64()
		sd := decoder{b: buf[:end], off: d.off}
		if err := decodeBody(&sd, sf); err != nil {
			return err
		}
		if sd.off != end {
			return fmt.Errorf("transport: batch sub-frame %d has %d trailing bytes", i, end-sd.off)
		}
		d.off = end
	}
	if d.off != len(buf) {
		return fmt.Errorf("transport: %d trailing bytes after batch", len(buf)-d.off)
	}
	return nil
}
