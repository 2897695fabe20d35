package transport

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"saferatt/internal/core"
)

func TestCodecRoundTrip(t *testing.T) {
	msgs := []Msg{
		{From: "vrf", To: "prv", Kind: KindChallenge, ReqID: 1, Nonce: []byte{9, 8, 7}},
		{From: "vrf", To: "prv", Kind: KindRelease, ReqID: 2},
		{From: "vrf", To: "prv", Kind: KindCollect, ReqID: 3},
		{From: "prv", To: "vrf", Kind: KindHello, ReqID: 4},
		{From: "vrf", To: "prv", Kind: KindVerdict, ReqID: 5, OK: true, Reason: "clean"},
		{From: "vrf", To: "prv", Kind: KindVerdict, ReqID: 6, Reason: "tag mismatch"},
		{From: "prv", To: "vrf", Kind: KindReport, ReqID: 7,
			Reports: []*core.Report{conformanceReport(1)}},
		{From: "prv", To: "vrf", Kind: KindCollection, ReqID: 8,
			Reports: []*core.Report{conformanceReport(1), conformanceReport(2), conformanceReport(3)}},
		{From: "prv", To: "vrf", Kind: KindSeedReport, ReqID: 9,
			Reports: []*core.Report{conformanceReport(4)}},
		// Image-bearing frames (wire v2): flag bit 1 + u8-length field.
		{From: "prv", To: "vrf", Kind: KindHello, ReqID: 10, Image: "sensor"},
		{From: "prv", To: "vrf", Kind: KindReport, ReqID: 11, Image: "sensor@v2",
			Reports: []*core.Report{conformanceReport(5)}},
		{From: "prv", To: "vrf", Kind: KindCollection, ReqID: 12, Image: "gateway",
			Reports: []*core.Report{conformanceReport(6), conformanceReport(7)}},
	}
	for _, want := range msgs {
		frame := AppendFrame(nil, &want)
		got, reqID, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Kind, err)
		}
		if got == nil || reqID != want.ReqID {
			t.Fatalf("%v: got ack or wrong reqID %d", want.Kind, reqID)
		}
		if got.From != want.From || got.To != want.To || got.Kind != want.Kind ||
			got.OK != want.OK || got.Reason != want.Reason || got.Image != want.Image ||
			!bytes.Equal(got.Nonce, want.Nonce) {
			t.Fatalf("%v: round trip mangled: %+v", want.Kind, got)
		}
		if len(got.Reports) != len(want.Reports) {
			t.Fatalf("%v: %d reports, want %d", want.Kind, len(got.Reports), len(want.Reports))
		}
		for i := range want.Reports {
			assertReportEqual(t, got.Reports[i], want.Reports[i])
		}
		// Deterministic: re-encoding the decoded message reproduces the
		// frame byte for byte (map-shaped content is emitted sorted).
		if again := AppendFrame(nil, got); !bytes.Equal(again, frame) {
			t.Fatalf("%v: encoding is not deterministic", want.Kind)
		}
	}
}

func TestCodecAck(t *testing.T) {
	frame := AppendAck(nil, 0xdeadbeefcafe)
	m, reqID, err := DecodeFrame(frame)
	if err != nil || m != nil || reqID != 0xdeadbeefcafe {
		t.Fatalf("ack round trip: m=%v reqID=%x err=%v", m, reqID, err)
	}
}

func TestCodecRejects(t *testing.T) {
	good := AppendFrame(nil, &Msg{From: "a", To: "b", Kind: KindHello, ReqID: 1})
	withImg := AppendFrame(nil, &Msg{From: "a", To: "b", Kind: KindHello, ReqID: 1, Image: "i"})
	// The image flag set with a zero-length id: non-canonical, rejected
	// ("no image" is a clear flag, nothing else).
	emptyImg := append(append([]byte(nil), withImg[:len(withImg)-2]...), 0)
	cases := map[string][]byte{
		"empty":           {},
		"short":           good[:8],
		"bad magic":       append([]byte{'X', 'Y'}, good[2:]...),
		"bad version":     append([]byte{'R', 'A', 99}, good[3:]...),
		"bad frametype":   append([]byte{'R', 'A', CodecVersion, 7}, good[4:]...),
		"trailing":        append(append([]byte{}, good...), 0),
		"truncated":       good[:len(good)-1],
		"empty image id":  emptyImg,
		"image truncated": withImg[:len(withImg)-1],
	}
	for name, frame := range cases {
		if _, _, err := DecodeFrame(frame); err == nil {
			t.Errorf("%s: decode accepted a bad frame", name)
		}
	}
	// One wire version exists: the same well-formed bytes under version
	// 1 (the retired format, data, image-bearing and ack frames alike)
	// or any other version are refused by name.
	for name, frame := range map[string][]byte{"data": good, "image on v1": withImg, "ack": AppendAck(nil, 7)} {
		for _, ver := range []byte{0, 1, CodecVersion + 1} {
			other := append([]byte(nil), frame...)
			other[2] = ver
			want := fmt.Sprintf("unsupported frame version %d", ver)
			if _, _, err := DecodeFrame(other); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s at version %d: err = %v, want %q", name, ver, err, want)
			}
		}
	}
}

// FuzzWireCodec fuzzes the binary frame codec from both directions:
// arbitrary bytes must never panic or over-allocate, and any frame
// that does decode must re-encode to the identical bytes (the
// determinism property retransmission and dedup rely on).
func FuzzWireCodec(f *testing.F) {
	f.Add(AppendFrame(nil, &Msg{From: "vrf", To: "prv", Kind: KindChallenge, ReqID: 3, Nonce: []byte{1, 2}}))
	f.Add(AppendFrame(nil, &Msg{From: "prv", To: "vrf", Kind: KindCollection, ReqID: 4,
		Reports: []*core.Report{conformanceReport(1)}}))
	f.Add(AppendFrame(nil, &Msg{From: "v", To: "p", Kind: KindVerdict, ReqID: 5, OK: true, Reason: "x"}))
	f.Add(AppendFrame(nil, &Msg{From: "p", To: "v", Kind: KindReport, ReqID: 6, Image: "sensor@v2",
		Reports: []*core.Report{conformanceReport(3)}}))
	imgSeed := AppendFrame(nil, &Msg{From: "p", To: "v", Kind: KindHello, ReqID: 7, Image: "i"})
	f.Add(imgSeed)
	v1img := append([]byte(nil), imgSeed...)
	v1img[2] = 1
	f.Add(v1img)                                                       // a frame of the retired wire version 1: must reject, not panic
	f.Add(append(append([]byte(nil), imgSeed[:len(imgSeed)-2]...), 0)) // empty image id
	f.Add(AppendAck(nil, 12345))
	f.Add([]byte{'R', 'A', CodecVersion, frameData, 0, 0, 0, 0, 0, 0, 0, 1})
	// Batch-frame seeds: a healthy two-sub batch, a batch carrying the
	// same sub-report twice (valid on the wire — dedup is a delivery
	// concern), a truncated batch, and one whose count lies.
	batchSeed := AppendBatch(nil, 77, []*Msg{
		{From: "p1", To: "vrf", Kind: KindReport, ReqID: 8, Reports: []*core.Report{conformanceReport(1)}},
		{From: "p2", To: "vrf", Kind: KindHello, ReqID: 9},
	})
	f.Add(batchSeed)
	f.Add(AppendBatch(nil, 78, []*Msg{
		{From: "p", To: "v", Kind: KindSeedReport, ReqID: 5, Reports: []*core.Report{conformanceReport(2)}},
		{From: "p", To: "v", Kind: KindSeedReport, ReqID: 5, Reports: []*core.Report{conformanceReport(2)}},
	}))
	f.Add(batchSeed[:len(batchSeed)-5])
	badCount := append([]byte(nil), batchSeed...)
	badCount[13] = 7
	f.Add(badCount)
	// Ack sub-frames: verdicts with acks riding behind them, and a
	// request-ID-0 batch of acks alone.
	f.Add(appendMixed(79, []*Msg{
		{From: "vrf", To: "p1", Kind: KindVerdict, ReqID: 10, OK: true},
		{From: "vrf", To: "p2", Kind: KindVerdict, ReqID: 11, Reason: "tag mismatch"},
	}, 8, 9))
	f.Add(appendMixed(0, nil, 12, 13, 14))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The zero-copy decoder must agree with the owning decoder on
		// every input: same accept/reject verdict (batch frames
		// excepted — only the view form can represent them), and for
		// batches, ack sub-frames included, strict canonical re-encode.
		var fr Frame
		viewErr := DecodeFrameInto(data, &fr)
		if viewErr == nil && fr.Batch {
			if again := reencodeBatch(&fr); !bytes.Equal(again, data) {
				t.Fatalf("batch decode/encode not idempotent:\n in  %x\n out %x", data, again)
			}
			if _, _, err := DecodeFrame(data); err == nil {
				t.Fatalf("owning decoder accepted a batch frame")
			}
			return
		}
		m, reqID, err := DecodeFrame(data)
		if (err == nil) != (viewErr == nil) {
			t.Fatalf("decoders disagree: DecodeFrame=%v DecodeFrameInto=%v", err, viewErr)
		}
		if err != nil {
			return
		}
		if m == nil {
			// Ack frames re-encode exactly.
			if !bytes.Equal(AppendAck(nil, reqID), data) {
				t.Fatalf("ack re-encode mismatch")
			}
			return
		}
		again := AppendFrame(nil, m)
		if !bytes.Equal(again, data) {
			t.Fatalf("decode/encode not idempotent:\n in  %x\n out %x", data, again)
		}
		// And the re-encoded frame must itself round-trip.
		if _, _, err := DecodeFrame(again); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
	})
}
