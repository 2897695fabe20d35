package transport

import (
	"bytes"
	"testing"
	"unsafe"

	"saferatt/internal/core"
)

// plainReport builds a report with no per-block data map — the shape
// the zero-copy decode handles without allocating (a Data map must be
// rebuilt per decode and is exercised separately).
func plainReport(i int) *core.Report {
	r := conformanceReport(i)
	r.Data = nil
	return r
}

// TestLegacyDecodeFrameCopySafe is the regression test for the latent
// aliasing hazard: DecodeFrame hands out an owning Msg, so mutating
// the wire buffer after decode — exactly what a reused receive buffer
// does — must not change anything the caller got. The property now
// holds by construction (DecodeFrame detaches a view frame through
// Frame.Msg), and this test keeps it pinned.
func TestLegacyDecodeFrameCopySafe(t *testing.T) {
	want := Msg{From: "prv", To: "vrf", Kind: KindCollection, ReqID: 11,
		Reports: []*core.Report{conformanceReport(1), conformanceReport(2)}}
	buf := AppendFrame(nil, &want)
	got, reqID, err := DecodeFrame(buf)
	if err != nil || got == nil || reqID != 11 {
		t.Fatalf("decode: m=%v reqID=%d err=%v", got, reqID, err)
	}
	// Scribble over the whole buffer, as a recycled receive buffer
	// decoding the next datagram would.
	for i := range buf {
		buf[i] ^= 0xff
	}
	if got.From != "prv" || got.To != "vrf" {
		t.Fatalf("names corrupted by buffer reuse: %+v", got)
	}
	for i, r := range want.Reports {
		assertReportEqual(t, got.Reports[i], r)
	}

	// Verdict and challenge shapes too.
	for _, m := range []Msg{
		{From: "v", To: "p", Kind: KindChallenge, ReqID: 1, Nonce: []byte{1, 2, 3, 4}},
		{From: "v", To: "p", Kind: KindVerdict, ReqID: 2, OK: true, Reason: "clean"},
	} {
		buf := AppendFrame(nil, &m)
		got, _, err := DecodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xAA
		}
		if !bytes.Equal(got.Nonce, m.Nonce) || got.Reason != m.Reason {
			t.Fatalf("%v payload corrupted by buffer reuse: %+v", m.Kind, got)
		}
	}
}

// TestFrameViewsAliasAndDetach pins both halves of the ownership
// contract: DecodeFrameInto's views genuinely alias the buffer (that
// is what makes them zero-copy), and Msg genuinely detaches.
func TestFrameViewsAliasAndDetach(t *testing.T) {
	m := Msg{From: "prv", To: "vrf", Kind: KindReport, ReqID: 5,
		Reports: []*core.Report{plainReport(1)}}
	buf := AppendFrame(nil, &m)
	var f Frame
	if err := DecodeFrameInto(buf, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Reports) != 1 || !bytes.Equal(f.Reports[0].Tag, m.Reports[0].Tag) {
		t.Fatalf("decode mangled: %+v", f.Reports)
	}
	detachedMsg := f.Msg()
	wantTag := append([]byte(nil), m.Reports[0].Tag...)

	for i := range buf {
		buf[i] ^= 0xff
	}
	if bytes.Equal(f.Reports[0].Tag, wantTag) {
		t.Fatalf("view did not alias the buffer — decode copied")
	}
	if !bytes.Equal(detachedMsg.Reports[0].Tag, wantTag) {
		t.Fatalf("Msg() did not detach")
	}
	// Interned strings survive regardless.
	if f.From != "prv" || f.To != "vrf" {
		t.Fatalf("interned names corrupted: %q %q", f.From, f.To)
	}
}

// TestZeroCopyDecodeAllocs is the allocation gate the CI bench-smoke
// also enforces: decoding a data frame or a batch frame into a warmed
// Frame must not allocate at all.
func TestZeroCopyDecodeAllocs(t *testing.T) {
	data := AppendFrame(nil, &Msg{From: "prv", To: "vrf", Kind: KindCollection, ReqID: 3,
		Reports: []*core.Report{plainReport(1), plainReport(2), plainReport(3)}})
	batch := AppendBatch(nil, 9, []*Msg{
		{From: "p1", To: "vrf", Kind: KindReport, ReqID: 10, Reports: []*core.Report{plainReport(1)}},
		{From: "p2", To: "vrf", Kind: KindHello, ReqID: 11},
		{From: "vrf", To: "p1", Kind: KindVerdict, ReqID: 12, OK: true},
	})
	ack := AppendAck(nil, 77)

	var f Frame
	for name, buf := range map[string][]byte{"data": data, "batch": batch, "ack": ack} {
		// Warm: grows the Reports/Sub backing and interns the names.
		if err := DecodeFrameInto(buf, &f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := DecodeFrameInto(buf, &f); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s frame decode allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// TestBatchRoundTrip pins the batch wire format: encode, zero-copy
// decode, field fidelity per sub-frame, and canonical re-encode.
func TestBatchRoundTrip(t *testing.T) {
	msgs := []*Msg{
		{From: "p1", To: "vrf", Kind: KindReport, ReqID: 21,
			Reports: []*core.Report{conformanceReport(1)}},
		{From: "p2", To: "vrf", Kind: KindCollection, ReqID: 22,
			Reports: []*core.Report{conformanceReport(2), conformanceReport(3)}},
		{From: "p3", To: "vrf", Kind: KindHello, ReqID: 23},
		{From: "vrf", To: "p1", Kind: KindVerdict, ReqID: 24, OK: false, Reason: "tag mismatch"},
		{From: "vrf", To: "p2", Kind: KindChallenge, ReqID: 25, Nonce: []byte{4, 5, 6}},
	}
	buf := AppendBatch(nil, 0xBEEF, msgs)
	var f Frame
	if err := DecodeFrameInto(buf, &f); err != nil {
		t.Fatal(err)
	}
	if !f.Batch || f.ReqID != 0xBEEF || len(f.Sub) != len(msgs) {
		t.Fatalf("envelope: batch=%v reqID=%x subs=%d", f.Batch, f.ReqID, len(f.Sub))
	}
	for i, want := range msgs {
		sub := &f.Sub[i]
		if sub.ReqID != want.ReqID || sub.Kind != want.Kind ||
			sub.From != want.From || sub.To != want.To ||
			sub.OK != want.OK || sub.Reason != want.Reason ||
			!bytes.Equal(sub.Nonce, want.Nonce) {
			t.Fatalf("sub %d mangled: %+v", i, sub)
		}
		if len(sub.Reports) != len(want.Reports) {
			t.Fatalf("sub %d: %d reports, want %d", i, len(sub.Reports), len(want.Reports))
		}
		for j := range want.Reports {
			got := sub.Reports[j]
			assertReportEqual(t, &got, want.Reports[j])
		}
	}
	// Canonical: re-encoding the decoded subs reproduces the datagram.
	again := make([]*Msg, len(f.Sub))
	for i := range f.Sub {
		m := f.Sub[i].Msg()
		again[i] = &m
	}
	if re := AppendBatch(nil, f.ReqID, again); !bytes.Equal(re, buf) {
		t.Fatalf("batch re-encode differs:\n in  %x\n out %x", buf, re)
	}
	// The legacy owning decode cannot represent a batch; it must say so
	// rather than silently drop sub-frames.
	if _, _, err := DecodeFrame(buf); err == nil {
		t.Fatalf("DecodeFrame accepted a batch frame")
	}
}

// TestBatchDecodeRejects pins strictness: malformed batches fail
// loudly, never partially.
func TestBatchDecodeRejects(t *testing.T) {
	good := AppendBatch(nil, 1, []*Msg{
		{From: "a", To: "b", Kind: KindHello, ReqID: 2},
		{From: "c", To: "b", Kind: KindHello, ReqID: 3},
	})
	v1 := append([]byte(nil), good...)
	v1[2] = 1 // the retired wire version
	zeroCount := append([]byte(nil), good...)
	zeroCount[12], zeroCount[13] = 0, 0
	hugeCount := append([]byte(nil), good...)
	hugeCount[12], hugeCount[13] = 0xff, 0xff
	shortSub := append([]byte(nil), good...)
	shortSub[batchOverhead+3] = 1 // sub length 1 < minimum 8
	cases := map[string][]byte{
		"v1 batch":        v1,
		"zero count":      zeroCount,
		"huge count":      hugeCount,
		"short sub":       shortSub,
		"truncated":       good[:len(good)-3],
		"trailing":        append(append([]byte(nil), good...), 0xEE),
		"header only":     good[:headerLen],
		"count truncated": good[:headerLen+1],
	}
	var f Frame
	for name, buf := range cases {
		if err := DecodeFrameInto(buf, &f); err == nil {
			t.Errorf("%s: decode accepted a bad batch", name)
		}
	}
	if err := DecodeFrameInto(good, &f); err != nil {
		t.Fatalf("control batch rejected: %v", err)
	}
}

// TestInterning pins the interning table: equal byte sequences yield
// the identical string header, so fleet peer names cost one allocation
// process-wide rather than one per datagram.
func TestInterning(t *testing.T) {
	buf := AppendFrame(nil, &Msg{From: "prover-00042", To: "vrf", Kind: KindHello, ReqID: 1})
	var a, b Frame
	if err := DecodeFrameInto(buf, &a); err != nil {
		t.Fatal(err)
	}
	if err := DecodeFrameInto(append([]byte(nil), buf...), &b); err != nil {
		t.Fatal(err)
	}
	if a.From != "prover-00042" || unsafe.StringData(a.From) != unsafe.StringData(b.From) {
		t.Fatalf("two decodes of one name do not share its string: %q %q", a.From, b.From)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeFrameInto(buf, &b); err != nil || b.From != a.From {
			t.Fatal("decode changed value")
		}
	})
	if allocs != 0 {
		t.Errorf("decoding an interned name allocates %.1f allocs/op, want 0", allocs)
	}
}
