package costmodel

import (
	"testing"

	"saferatt/internal/suite"
)

const (
	mb = 1_000_000
	gb = 1_000_000_000
)

// The paper's published anchor points (§2.4, §2.5) must hold for the
// calibrated profile within loose tolerances — these are "about" values
// in the text.
func TestPaperAnchors(t *testing.T) {
	p := ODROIDXU4()

	// "Measuring its entire RAM (2GB) is quite time-consuming at
	// nearly 14sec."
	d := p.HashTime(suite.SHA256, 2*gb)
	if s := d.Seconds(); s < 12 || s > 16 {
		t.Errorf("2 GB SHA-256 = %.2fs, want ~14s", s)
	}

	// "Assuming attested memory size of 1GB, MP would run for
	// approximately 7sec."
	d = p.HashTime(suite.SHA256, 1*gb)
	if s := d.Seconds(); s < 6 || s > 8 {
		t.Errorf("1 GB SHA-256 = %.2fs, want ~7s", s)
	}

	// "about 0.9sec to measure just 100MB" — same order.
	d = p.HashTime(suite.SHA256, 100*mb)
	if s := d.Seconds(); s < 0.5 || s > 1.2 {
		t.Errorf("100 MB SHA-256 = %.2fs, want ~0.7-0.9s", s)
	}

	// "for input sizes over 1MB, MP takes longer than 0.01sec".
	for _, id := range suite.HashIDs() {
		if d := p.HashTime(id, 2*mb); d.Seconds() < 0.005 {
			t.Errorf("%s at 2 MB = %v, implausibly fast", id, d)
		}
	}
}

// Figure 2's qualitative structure: hash cost is (affine) linear in n,
// signature cost is constant, so a crossover exists near ~1 MB for most
// schemes.
func TestFigure2Shape(t *testing.T) {
	p := ODROIDXU4()

	// Linearity of the streaming cost.
	for _, id := range suite.HashIDs() {
		t1 := p.StreamTime(id, 1*mb)
		t10 := p.StreamTime(id, 10*mb)
		ratio := float64(t10) / float64(t1)
		if ratio < 9.9 || ratio > 10.1 {
			t.Errorf("%s: 10x input gave %.2fx time, want 10x", id, ratio)
		}
	}

	// Crossovers: every signer crosses hashing somewhere between 10 KB
	// and 10 MB ("most signature algorithms become comparatively
	// insignificant" past ~1 MB; RSA-4096 is the late outlier).
	h := suite.SHA256
	for _, sid := range suite.SignerIDs() {
		x := p.CrossoverBytes(h, sid)
		if x < 10_000 || x > 10*mb {
			t.Errorf("%s crossover at %d bytes, want within [10KB, 10MB]", sid, x)
		}
	}
	if x4096, x1024 := p.CrossoverBytes(h, suite.RSA4096), p.CrossoverBytes(h, suite.RSA1024); x4096 <= x1024 {
		t.Error("RSA-4096 should cross over later than RSA-1024")
	}
}

func TestMACTimeExceedsHashTime(t *testing.T) {
	p := ODROIDXU4()
	for _, id := range suite.HashIDs() {
		if p.MACTime(id, mb) <= p.HashTime(id, mb) {
			t.Errorf("%s: MAC not costlier than plain hash", id)
		}
		// But the overhead is negligible at scale (§2.4).
		over := float64(p.MACTime(id, 100*mb)-p.HashTime(id, 100*mb)) / float64(p.HashTime(id, 100*mb))
		if over > 0.001 {
			t.Errorf("%s: MAC overhead %.4f%% at 100MB, want negligible", id, over*100)
		}
	}
}

func TestBlake2FasterThanSHA(t *testing.T) {
	p := ODROIDXU4()
	n := 10 * mb
	if p.HashTime(suite.BLAKE2b, n) >= p.HashTime(suite.SHA256, n) {
		t.Error("BLAKE2b should beat SHA-256 on the embedded profile")
	}
	if p.HashTime(suite.BLAKE2s, n) >= p.HashTime(suite.SHA512, n) {
		t.Error("BLAKE2s should beat SHA-512 on the embedded profile")
	}
}

func TestLowEndMCUScaling(t *testing.T) {
	fast, slow := ODROIDXU4(), LowEndMCU()
	if slow.Name == fast.Name {
		t.Fatal("profiles share a name")
	}
	for _, id := range suite.HashIDs() {
		r := float64(slow.StreamTime(id, mb)) / float64(fast.StreamTime(id, mb))
		if r < 35 || r > 45 {
			t.Errorf("%s: low-end scale factor %.1f, want ~40", id, r)
		}
	}
	for _, sid := range suite.SignerIDs() {
		if slow.SignTime(sid) != 40*fast.SignTime(sid) {
			t.Errorf("%s: sign cost not scaled", sid)
		}
	}
	if slow.CtxSwitch != 40*fast.CtxSwitch || slow.LockOp != 40*fast.LockOp {
		t.Error("overheads not scaled")
	}
}

func TestStreamTimeZeroBytes(t *testing.T) {
	p := ODROIDXU4()
	if p.StreamTime(suite.SHA256, 0) != 0 {
		t.Error("zero bytes should stream in zero time")
	}
	if p.HashTime(suite.SHA256, 0) != p.HashFixed[suite.SHA256] {
		t.Error("zero-byte hash should cost exactly the fixed overhead")
	}
}

func TestPanicsOnUnknownAlgorithms(t *testing.T) {
	p := ODROIDXU4()
	for _, fn := range []func(){
		func() { p.StreamTime("bogus", 1) },
		func() { p.SignTime("bogus") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for unknown algorithm")
				}
			}()
			fn()
		}()
	}
}

// The two measurement modes of §2.4 at 1 MB: hash-and-sign pays the
// signature on top of the hash and costs more than the MAC.
func TestMeasureTimeModes(t *testing.T) {
	p := ODROIDXU4()
	mac := p.MACTime(suite.SHA256, mb)
	sg := p.HashTime(suite.SHA256, mb) + p.SignTime(suite.ECDSA256)
	if sg <= mac {
		t.Errorf("hash-and-sign (%v) should cost more than MAC (%v) at 1MB", sg, mac)
	}
}
