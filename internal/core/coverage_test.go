package core

import (
	"io"
	"testing"

	"saferatt/internal/suite"
)

// runWithData runs a single measurement with a data region configured
// and returns the report plus a verification function against the
// rig's ORIGINAL golden image.
func runWithData(t *testing.T, r *rig, region DataRegion) (*Report, func() bool) {
	t.Helper()
	opts := Preset(NoLock, suite.SHA256)
	opts.Data = region
	task := r.dev.NewTask("mp", 5)
	m, err := NewMeasurement(r.dev, task, opts, []byte("d-nonce"), 0)
	if err != nil {
		t.Fatal(err)
	}
	var rep *Report
	m.Start(func(rr *Report, err error) {
		if err != nil {
			t.Fatalf("measurement: %v", err)
		}
		rep = rr
	})
	r.k.Run()
	verify := func() bool {
		ref, err := EffectiveReference(r.ref, r.m.BlockSize(), region, rep.Data)
		if err != nil {
			return false
		}
		order := DeriveOrder(r.dev.AttestationKey, rep.Nonce, rep.Round, r.m.NumBlocks(), false)
		scheme := suite.Scheme{Hash: suite.SHA256, Key: r.dev.AttestationKey}
		ok, err := scheme.VerifyStream(func(w io.Writer) error {
			ExpectedStreamForReport(w, suite.SHA256, rep, ref, r.m.BlockSize(), order)
			return nil
		}, rep.Tag)
		return err == nil && ok
	}
	return rep, verify
}

// §2.3's problem: benign mutation of high-entropy data breaks
// DataIncluded verification (a false positive).
func TestDataIncludedFalsePositiveOnBenignWrite(t *testing.T) {
	r := newRig(t, 4096, 256)
	// The application updated its state before attestation.
	if err := r.m.Poke(10*256+3, 0x11); err != nil {
		t.Fatal(err)
	}
	_, verify := runWithData(t, r, DataRegion{}) // D empty: everything is "code"
	if verify() {
		t.Fatal("benign data mutation should break DataIncluded verification")
	}
}

// DataZeroed wipes D before MP: benign data changes no longer matter,
// and malware hiding in D is eliminated outright.
func TestDataZeroedToleratesDataAndKillsHiddenMalware(t *testing.T) {
	r := newRig(t, 4096, 256)
	region := DataRegion{Blocks: []int{10, 11}, Policy: DataZeroed}
	// Benign data mutation AND malware payload, both inside D.
	if err := r.m.Poke(10*256+3, 0x11); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Poke(11*256+7, 0xEB); err != nil { // "malware"
		t.Fatal(err)
	}
	rep, verify := runWithData(t, r, region)
	if !verify() {
		t.Fatal("DataZeroed verification failed despite policy")
	}
	// The wipe is real: memory holds zeros where the malware was.
	for _, b := range region.Blocks {
		for _, v := range r.m.Block(b) {
			if v != 0 {
				t.Fatalf("data block %d not wiped", b)
			}
		}
	}
	if rep.Data != nil {
		t.Fatal("DataZeroed must not attach data copies")
	}
}

// Malware OUTSIDE the zeroed region is still caught.
func TestDataZeroedStillDetectsCodeInfection(t *testing.T) {
	r := newRig(t, 4096, 256)
	region := DataRegion{Blocks: []int{10, 11}, Policy: DataZeroed}
	if err := r.m.Poke(5*256, 0xEB); err != nil { // infection in C
		t.Fatal(err)
	}
	_, verify := runWithData(t, r, region)
	if verify() {
		t.Fatal("code infection escaped under DataZeroed")
	}
}

// DataReported attaches D verbatim: verification succeeds whatever D
// holds, and Vrf receives the exact bytes for inspection.
func TestDataReportedCarriesCopies(t *testing.T) {
	r := newRig(t, 4096, 256)
	region := DataRegion{Blocks: []int{12}, Policy: DataReported}
	if err := r.m.Poke(12*256+9, 0x77); err != nil {
		t.Fatal(err)
	}
	rep, verify := runWithData(t, r, region)
	if !verify() {
		t.Fatal("DataReported verification failed")
	}
	data, ok := rep.Data[12]
	if !ok || len(data) != 256 {
		t.Fatalf("report data: %v", rep.Data)
	}
	if data[9] != 0x77 {
		t.Fatal("reported copy does not reflect the mutation")
	}
	if len(rep.Data) != 1 {
		t.Fatalf("report carries %d data blocks, want only block 12", len(rep.Data))
	}
}

// A prover cannot lie about D: the tag binds the reported copy, so a
// tampered attachment fails verification.
func TestDataReportedTamperDetected(t *testing.T) {
	r := newRig(t, 4096, 256)
	region := DataRegion{Blocks: []int{12}, Policy: DataReported}
	rep, verify := runWithData(t, r, region)
	if !verify() {
		t.Fatal("honest report rejected")
	}
	rep.Data[12][0] ^= 1
	if verify() {
		t.Fatal("tampered data attachment accepted")
	}
}

func TestDataRegionValidation(t *testing.T) {
	r := newRig(t, 4096, 256)
	task := r.dev.NewTask("mp", 5)
	bad := []DataRegion{
		{Blocks: []int{-1}},
		{Blocks: []int{16}},
		{Blocks: []int{0}},    // ROM
		{Blocks: []int{5, 5}}, // duplicate
	}
	for i, region := range bad {
		opts := Preset(NoLock, suite.SHA256)
		opts.Data = region
		if _, err := NewMeasurement(r.dev, task, opts, nil, 0); err == nil {
			t.Errorf("case %d: invalid region accepted", i)
		}
	}
}

func TestEffectiveReferenceErrors(t *testing.T) {
	ref := make([]byte, 1024)
	// Missing reported block.
	if _, err := EffectiveReference(ref, 256, DataRegion{Blocks: []int{1}, Policy: DataReported}, nil); err == nil {
		t.Error("missing data copy accepted")
	}
	// Wrong length.
	if _, err := EffectiveReference(ref, 256, DataRegion{Blocks: []int{1}, Policy: DataReported},
		map[int][]byte{1: make([]byte, 5)}); err == nil {
		t.Error("short data copy accepted")
	}
	// Included: reference returned unchanged (same backing array).
	out, err := EffectiveReference(ref, 256, DataRegion{}, nil)
	if err != nil || &out[0] != &ref[0] {
		t.Error("DataIncluded should pass the reference through")
	}
}

func TestDataPolicyString(t *testing.T) {
	for p, want := range map[DataPolicy]string{
		DataIncluded: "included", DataZeroed: "zeroed", DataReported: "reported",
		DataPolicy(9): "DataPolicy(9)",
	} {
		if p.String() != want {
			t.Errorf("%d: %q != %q", int(p), p.String(), want)
		}
	}
}

// The zeroing cost is charged: a zeroed measurement takes longer than a
// plain one by the copy time of D.
func TestDataZeroedCostCharged(t *testing.T) {
	run := func(region DataRegion) *Report {
		r := newRig(t, 4096, 256)
		rep, _ := runWithData(t, r, region)
		return rep
	}
	plain := run(DataRegion{})
	zeroed := run(DataRegion{Blocks: []int{10, 11, 12, 13}, Policy: DataZeroed})
	if zeroed.TS <= plain.TS {
		t.Fatalf("zeroing cost not charged in setup: t_s %v vs %v", zeroed.TS, plain.TS)
	}
}
