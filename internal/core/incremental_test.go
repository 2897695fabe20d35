package core

import (
	"bytes"
	"io"
	"testing"

	"saferatt/internal/suite"
)

func TestPathModeResolution(t *testing.T) {
	defer SetStreamingDefault(false)
	cases := []struct {
		path      PathMode
		streaming bool // package default
		want      bool // Incremental()
	}{
		{PathDefault, false, true},
		{PathDefault, true, false},
		{PathIncremental, true, true},
		{PathStreaming, false, false},
	}
	for _, c := range cases {
		SetStreamingDefault(c.streaming)
		o := Options{Hash: suite.SHA256, Path: c.path}
		if got := o.Incremental(); got != c.want {
			t.Errorf("Path=%v streamingDefault=%v: Incremental()=%v, want %v",
				c.path, c.streaming, got, c.want)
		}
	}
	if PathIncremental.String() != "incremental" || PathStreaming.String() != "streaming" {
		t.Error("PathMode.String")
	}
}

// Both paths must accept a clean device and mark the report with the
// path that produced it, so verifiers can mirror it.
func TestBothPathsVerifyCleanDevice(t *testing.T) {
	for _, path := range []PathMode{PathStreaming, PathIncremental} {
		r := newRig(t, 4096, 256)
		opts := Preset(SMART, suite.SHA256)
		opts.Path = path
		rep := r.run(t, opts, 10)
		if want := path == PathIncremental; rep.Incremental != want {
			t.Fatalf("%v: Report.Incremental = %v", path, rep.Incremental)
		}
		if !bytes.Equal(rep.Tag, r.expectedTag(t, rep, false)) {
			t.Fatalf("%v: clean device tag mismatch", path)
		}
	}
}

// The engine-level stale-cache regression: measure once (warming the
// device's digest cache), infect a block, measure again. The second
// report must NOT verify — if any mutation path failed to invalidate,
// the cached clean digest would mask the infection.
func TestIncrementalStaleCacheDetectsLateInfection(t *testing.T) {
	r := newRig(t, 4096, 256)
	opts := Preset(SMART, suite.SHA256)
	opts.Path = PathIncremental

	rep1 := r.run(t, opts, 10)
	if !bytes.Equal(rep1.Tag, r.expectedTag(t, rep1, false)) {
		t.Fatal("clean measurement rejected")
	}

	// Infect after the cache is warm.
	if err := r.m.WriteBlock(5, bytes.Repeat([]byte{0xEB}, 256)); err != nil {
		t.Fatal(err)
	}
	rep2 := r.run(t, opts, 10)
	if bytes.Equal(rep2.Tag, r.expectedTag(t, rep2, false)) {
		t.Fatal("stale cached digest masked an infection")
	}

	// Out-of-band healing must be visible too.
	r.m.Restore(r.ref)
	rep3 := r.run(t, opts, 10)
	if !bytes.Equal(rep3.Tag, r.expectedTag(t, rep3, false)) {
		t.Fatal("healed device still rejected: Restore did not invalidate")
	}
}

// Streaming and incremental reports of the same clean memory use
// different tag constructions (bytes vs digests under the outer MAC), so
// their tags must differ — equivalence is of verdicts, not bits.
func TestPathsProduceDistinctTagConstructions(t *testing.T) {
	mkRep := func(path PathMode) *Report {
		r := newRig(t, 2048, 256)
		opts := Preset(SMART, suite.SHA256)
		opts.Path = path
		return r.run(t, opts, 10)
	}
	st := mkRep(PathStreaming)
	inc := mkRep(PathIncremental)
	if bytes.Equal(st.Tag, inc.Tag) {
		t.Fatal("streaming and incremental tags collide; domains not separated")
	}
	// Virtual-time invariance: identical worlds charge identical
	// simulated durations on both paths.
	if st.TS != inc.TS || st.TE != inc.TE {
		t.Fatalf("virtual time differs: streaming [%v,%v], incremental [%v,%v]",
			st.TS, st.TE, inc.TS, inc.TE)
	}
}

// AES-CMAC has no unkeyed mode; the incremental path digests blocks with
// SHA-256 and must still round-trip.
func TestIncrementalAESCMACVerifies(t *testing.T) {
	r := newRig(t, 2048, 256)
	opts := Preset(SMART, suite.AESCMAC)
	opts.Path = PathIncremental
	rep := r.run(t, opts, 10)
	order := DeriveOrder(r.dev.AttestationKey, rep.Nonce, rep.Round, r.m.NumBlocks(), false)
	scheme := suite.Scheme{Hash: suite.AESCMAC, Key: r.dev.AttestationKey}
	ok, err := scheme.VerifyStream(func(w io.Writer) error {
		ExpectedStreamForReport(w, suite.AESCMAC, rep, r.ref, r.m.BlockSize(), order)
		return nil
	}, rep.Tag)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("incremental AES-CMAC report rejected")
	}
}
