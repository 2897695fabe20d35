package transport

import (
	"encoding/binary"
	"fmt"
	"sort"

	"saferatt/internal/core"
)

// The wire format. Every datagram is one frame:
//
//	0:2  magic "RA"
//	2    version (3; a frame with any other version byte is refused)
//	3    frame type: frameData | frameAck | frameBatch
//	4:12 request ID (big endian)
//
// Ack frames end there. Batch frames are described in frame.go. Data
// frames continue:
//
//	12   kind
//	13   flags (bit 0: verdict OK; bit 1: image field present)
//	14:  from  (u16 length + bytes)
//	     to    (u16 length + bytes)
//	     image (u8 length + bytes) — only when flag bit 1 is set; a
//	            verifier.ImageID in wire form naming the golden image
//	            the sender's reports measure. Decoders reject a set
//	            flag with an empty id (the canonical encoding of "no
//	            image" is a clear flag).
//	     payload (per kind, see below)
//
// Payloads: KindChallenge carries the nonce (u16+bytes); KindVerdict
// carries the reason (u16+bytes, OK in flags); the report kinds carry
// u16 report count followed by encoded reports; the remaining kinds
// carry nothing. Only a report's *wire content* travels (§2.2: nonce,
// round, counter, tag, timestamps, region, attached data blocks plus
// the geometry the verifier recomputes against); simulation metadata
// (coverage instants, traversal order) never crosses the wire.
//
// All multi-byte integers are big endian and all map-shaped content is
// emitted in sorted order, so encoding is a pure function of the
// message — equal messages produce equal bytes, which is what lets the
// Net transport retransmit frames verbatim and receivers deduplicate
// by request ID alone.

const (
	codecMagic0 = 'R'
	codecMagic1 = 'A'
	// CodecVersion is the frame format version. Every peer speaks it;
	// decoders reject anything else instead of guessing. Version 3 added
	// the body-less ack sub-frame (see frame.go).
	CodecVersion = 3

	frameData  = 0
	frameAck   = 1
	frameBatch = 2

	headerLen = 12

	// Data-frame flag bits (byte 13).
	flagOK    = 0x01 // verdict OK
	flagImage = 0x02 // image field follows the to field
)

// Decode limits: a frame that claims more elements than its bytes
// could possibly hold is rejected before any allocation is sized by
// attacker-controlled counts.
const (
	maxReports   = 1 << 14
	maxDataEntry = 1 << 14
)

// AppendFrame encodes m as a data frame appended to dst: the frame
// header, then exactly what a batch carries per message (appendSub).
func AppendFrame(dst []byte, m *Msg) []byte {
	dst = append(dst, codecMagic0, codecMagic1, CodecVersion, frameData)
	return appendSub(dst, m)
}

// AppendAck encodes an ack frame for reqID appended to dst.
func AppendAck(dst []byte, reqID uint64) []byte {
	dst = append(dst, codecMagic0, codecMagic1, CodecVersion, frameAck)
	return be64(dst, reqID)
}

// DecodeFrame parses one frame. It returns the message for data
// frames, or (nil, reqID, nil) for ack frames. Trailing bytes, bad
// magic, unknown versions and truncated payloads are all errors — a
// frame either parses completely or not at all. Batch frames are not
// expressible as a single Msg; decode them with DecodeFrameInto.
//
// The returned Msg owns all of its memory by construction: it is
// materialized from the zero-copy view decode via Frame.Msg, which
// deep-copies every byte slice — no field can alias b, so callers may
// reuse or mutate the buffer freely after decode.
func DecodeFrame(b []byte) (*Msg, uint64, error) {
	var f Frame
	if err := DecodeFrameInto(b, &f); err != nil {
		return nil, 0, err
	}
	if f.Ack {
		return nil, f.ReqID, nil
	}
	if f.Batch {
		return nil, 0, fmt.Errorf("transport: batch frame (%d sub-frames) requires DecodeFrameInto", len(f.Sub))
	}
	m := f.Msg()
	return &m, f.ReqID, nil
}

// appendReport encodes one report's wire content deterministically.
func appendReport(dst []byte, r *core.Report) []byte {
	dst = appendBytes8(dst, []byte(r.Mechanism))
	dst = appendBytes8(dst, []byte(r.Scheme))
	dst = appendBytes16(dst, r.Nonce)
	dst = be32(dst, uint32(r.Round))
	dst = be64(dst, r.Counter)
	dst = appendBytes16(dst, r.Tag)
	dst = be64(dst, uint64(r.TS))
	dst = be64(dst, uint64(r.TE))
	dst = be32(dst, uint32(r.RegionStart))
	dst = be32(dst, uint32(r.RegionCount))
	var flags byte
	if r.Incremental {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = be32(dst, uint32(r.BlockSize))
	dst = be32(dst, uint32(r.NumBlocks))
	dst = be16(dst, uint16(len(r.Data)))
	if len(r.Data) > 0 {
		blocks := make([]int, 0, len(r.Data))
		for b := range r.Data {
			blocks = append(blocks, b)
		}
		sort.Ints(blocks)
		for _, b := range blocks {
			dst = be32(dst, uint32(b))
			dst = be16(dst, uint16(len(r.Data[b])))
			dst = append(dst, r.Data[b]...)
		}
	}
	return dst
}

type decoder struct {
	b   []byte
	off int
	err error

	// The last string each interned field decoded to: a batch repeats
	// its names sub-frame after sub-frame, and a bundle its mechanism and
	// scheme report after report, so one frame interns each distinct
	// string once.
	from, to, image, mech, scheme lastName
}

// lastName is one field's memo: the string it last decoded to and that
// string's interned ID. A string the table refused past its cap (ID 0)
// is never reused; it goes back to the table every time, as it would
// without the memo.
type lastName struct {
	s  string
	id uint32
}

// get is t.get(b), answered from the memo when b spells its string.
func (l *lastName) get(t *internTable, b []byte) (string, uint32) {
	if l.id != 0 && string(b) == l.s {
		return l.s, l.id
	}
	l.s, l.id = t.get(b)
	return l.s, l.id
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("transport: frame truncated at offset %d", d.off)
	}
}

func (d *decoder) u8() byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// take returns n raw bytes aliasing the frame buffer.
func (d *decoder) take(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *decoder) bytes8() []byte  { return d.take(int(d.u8())) }
func (d *decoder) bytes16() []byte { return d.take(int(d.u16())) }

func be16(dst []byte, v uint16) []byte { return append(dst, byte(v>>8), byte(v)) }

func be32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func be64(dst []byte, v uint64) []byte {
	return append(dst, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendBytes8(dst, b []byte) []byte {
	if len(b) > 0xff {
		b = b[:0xff]
	}
	return append(append(dst, byte(len(b))), b...)
}

func appendBytes16(dst, b []byte) []byte {
	if len(b) > 0xffff {
		b = b[:0xffff]
	}
	return append(be16(dst, uint16(len(b))), b...)
}
