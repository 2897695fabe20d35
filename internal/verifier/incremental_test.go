package verifier

import (
	"testing"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/prover"
	"saferatt/internal/suite"
)

// The verifier must mirror whichever measurement path the prover used
// (Report.Incremental), accepting clean devices and rejecting tampered
// ones identically on both.
func TestVerifierPathMirroring(t *testing.T) {
	for _, path := range []core.PathMode{core.PathStreaming, core.PathIncremental} {
		opts := core.Preset(core.SMART, suite.SHA256)
		opts.Path = path

		// Clean round accepted.
		w := newWorld(t, opts, channel.Config{})
		if _, err := prover.NewProver("prv", w.dev, w.tr, opts, 10); err != nil {
			t.Fatal(err)
		}
		w.v.Challenge("prv")
		w.k.Run()
		rs := w.v.Results()
		if len(rs) != 1 || !rs[0].OK {
			t.Fatalf("%v: clean device rejected: %+v", path, rs)
		}
		res := rs[0]
		if want := path == core.PathIncremental; res.Report.Incremental != want {
			t.Fatalf("%v: Report.Incremental = %v", path, res.Report.Incremental)
		}

		// Repeat rounds on the same verifier: its golden digest cache
		// must survive across rounds and still accept.
		w.v.Challenge("prv")
		w.k.Run()
		if rs := w.v.Results(); len(rs) != 2 || !rs[1].OK {
			t.Fatalf("%v: second round rejected: %+v", path, rs)
		}

		// Tampering after the caches are warm is still caught.
		if err := w.m.Poke(5*256+1, 0xAA); err != nil {
			t.Fatal(err)
		}
		w.v.Challenge("prv")
		w.k.Run()
		if rs := w.v.Results(); len(rs) != 3 || rs[2].OK {
			t.Fatalf("%v: tampered memory accepted after warm rounds", path)
		}
	}
}

// Data-region policies on the incremental path: zeroed regions verify
// via the cached zero digest, reported regions via per-report digests,
// and a malformed reported copy is rejected.
func TestVerifierIncrementalDataPolicies(t *testing.T) {
	opts := core.Preset(core.NoLock, suite.SHA256)
	opts.Path = core.PathIncremental
	opts.Data = core.DataRegion{Blocks: []int{9, 10}, Policy: core.DataZeroed}
	w := newWorld(t, opts, channel.Config{})
	if _, err := prover.NewProver("prv", w.dev, w.tr, opts, 10); err != nil {
		t.Fatal(err)
	}
	if err := w.m.Poke(9*256+5, 0x3C); err != nil {
		t.Fatal(err)
	}
	w.v.Challenge("prv")
	w.k.Run()
	if rs := w.v.Results(); len(rs) != 1 || !rs[0].OK {
		t.Fatalf("incremental zeroed-region attestation rejected: %+v", rs)
	}

	opts2 := core.Preset(core.NoLock, suite.SHA256)
	opts2.Path = core.PathIncremental
	opts2.Data = core.DataRegion{Blocks: []int{9}, Policy: core.DataReported}
	w2 := newWorld(t, opts2, channel.Config{})
	if _, err := prover.NewProver("prv", w2.dev, w2.tr, opts2, 10); err != nil {
		t.Fatal(err)
	}
	w2.v.Challenge("prv")
	w2.k.Run()
	rs := w2.v.Results()
	if len(rs) != 1 || !rs[0].OK {
		t.Fatalf("incremental reported-region attestation rejected: %+v", rs)
	}

	// A report whose data copy was stripped must fail verification, not
	// be silently accepted against the (stale) golden digest.
	rep := *rs[0].Report
	rep.Data = nil
	if ok, _ := w2.v.CheckTag(&rep); ok {
		t.Fatal("report with missing data copy accepted")
	}
}
