package rattd

import (
	"bytes"
	"maps"
	"reflect"
	"testing"
)

// FuzzCheckpointCodec throws arbitrary bytes at the strict decoder
// and the chain reader. Invariants: no panic ever; successful strict
// decodes re-encode to bytes that decode back to the identical
// struct, and restore into a server whose own snapshot gives back what
// it was restored from (see checkRestored); and chain restore (which includes the lenient torn-tail
// path) never panics and never errors for any delta input.
func FuzzCheckpointCodec(f *testing.F) {
	full := &Checkpoint{
		Lease:    EpochLease{Shard: 3, Epoch: 17, Lo: 65537, Hi: 131073},
		NonceCtr: 65600,
		Erasmus: map[string]DedupWindow{
			"prv00001": windowOf(1, 2, 3),
			"prv00007": windowOf(5, 9),
		},
		Seed:    map[string]uint64{"prv00001": 12},
		Images:  map[string]string{"prv00007": "gateway"},
		ChainID: 4,
	}
	var buf bytes.Buffer
	if _, err := full.EncodeTo(&buf); err != nil {
		f.Fatal(err)
	}
	fullEnc := append([]byte(nil), buf.Bytes()...)
	delta := &Checkpoint{
		Lease:    full.Lease,
		NonceCtr: 65700,
		Erasmus:  map[string]DedupWindow{"prv00009": windowOf(2)},
		Seed:     map[string]uint64{"prv00009": 3},
		Images:   map[string]string{"prv00009": "sensor@v2"},
		Delta:    true, ChainID: 4, Seq: 1,
	}
	buf.Reset()
	if _, err := delta.EncodeTo(&buf); err != nil {
		f.Fatal(err)
	}
	deltaEnc := append([]byte(nil), buf.Bytes()...)

	f.Add(fullEnc)
	f.Add(deltaEnc)
	f.Add(fullEnc[:len(fullEnc)/2])
	f.Add(deltaEnc[:len(deltaEnc)-3])
	f.Add([]byte{})
	// Any version byte but the current one is refused, whatever follows.
	older := append([]byte(nil), fullEnc...)
	older[2] = CheckpointVersion - 1
	f.Add(older)
	newer := append([]byte(nil), deltaEnc...)
	newer[2] = CheckpointVersion + 1
	f.Add(newer)
	f.Add([]byte{'R', 'C', CheckpointVersion, 0, 0xff, 0xff})
	// Unknown flag bits.
	flags := append([]byte(nil), fullEnc...)
	flags[3] = 0x82
	f.Add(flags)
	// A trailer whose record count lies.
	lying := append([]byte(nil), fullEnc...)
	lying[len(lying)-1]++
	f.Add(lying)
	// A truncated image record (name present, image id torn off).
	f.Add(fullEnc[:len(fullEnc)-3])

	srv, _, _ := multiImageServer(f, 0)
	f.Fuzz(func(t *testing.T, b []byte) {
		cp, err := DecodeCheckpoint(b)
		if err == nil {
			// Re-encode and decode: the codec must be a lossless pair.
			var out bytes.Buffer
			if _, err := cp.EncodeTo(&out); err != nil {
				t.Fatalf("re-encode of valid checkpoint failed: %v", err)
			}
			cp2, err := DecodeCheckpoint(out.Bytes())
			if err != nil {
				t.Fatalf("re-encoded checkpoint does not decode: %v", err)
			}
			if !reflect.DeepEqual(cp, cp2) {
				t.Fatalf("re-encode round trip mismatch:\n got %+v\nwant %+v", cp2, cp)
			}
			srv.Restore(cp)
			checkRestored(t, srv, cp)
		}
		// Chain restore treats arbitrary delta bytes as a possibly-torn
		// tail: it must neither panic nor error — worst case the delta
		// is dropped.
		if _, _, err := DecodeChain(fullEnc, b); err != nil {
			t.Fatalf("chain restore errored on arbitrary delta: %v", err)
		}
		if _, _, err := DecodeChain(fullEnc, deltaEnc, b); err != nil {
			t.Fatalf("chain restore errored past a valid delta: %v", err)
		}
		// Arbitrary bytes as the base: error or success, never panic.
		_, _, _ = DecodeChain(b, deltaEnc)
	})
}

// checkRestored checks that s, just restored from cp, files every
// prover cp names: its own snapshot holds cp's windows and
// watermarks, and every binding to an image s serves other than its
// default (the rest are dropped, as Restore documents), and it counts
// each prover enrolled once.
func checkRestored(t *testing.T, s *Server, cp *Checkpoint) {
	t.Helper()
	want := map[string]string{}
	for p, img := range cp.Images {
		if img != "" && img != s.defName && s.images.Has(img) {
			want[p] = img
		}
	}
	got := s.Checkpoint()
	if !maps.Equal(got.Erasmus, cp.Erasmus) || !maps.Equal(got.Seed, cp.Seed) || !maps.Equal(got.Images, want) {
		t.Fatalf("restored state differs:\n got %+v\nwant %+v (images %v)", got, cp, want)
	}
	provers := map[string]bool{}
	for p := range cp.Erasmus {
		provers[p] = true
	}
	for p := range cp.Seed {
		provers[p] = true
	}
	for p := range want {
		provers[p] = true
	}
	if s.Enrolled() != len(provers) {
		t.Fatalf("restore enrolled %d provers, want %d", s.Enrolled(), len(provers))
	}
}
