package experiments

import (
	"math"
	"strings"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/qoa"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
)

// --- E1 -------------------------------------------------------------

func TestFig1TimelineOrdering(t *testing.T) {
	r := Fig1Timeline()
	seq := []sim.Time{r.RequestSent, r.RequestReceived, r.TS, r.TE, r.ReportSent, r.ReportReceived, r.Verified}
	for i := 1; i < len(seq); i++ {
		if seq[i] < seq[i-1] {
			t.Fatalf("timeline out of order at step %d: %v", i, seq)
		}
	}
	// The deferral the figure calls out: t_s strictly after arrival.
	if r.TS.Sub(r.RequestReceived) < 40*sim.Millisecond {
		t.Fatalf("deferral %v, want ~50ms of previous-task runtime", r.TS.Sub(r.RequestReceived))
	}
	// 1 MiB SHA-256 MAC ≈ 7.3 ms of measurement.
	if d := r.TE.Sub(r.TS); d < 5*sim.Millisecond || d > 12*sim.Millisecond {
		t.Fatalf("measurement %v, want ~7ms for 1 MiB", d)
	}
	if !strings.Contains(r.Timeline, "t_s") || !strings.Contains(r.Timeline, "deferral") {
		t.Fatal("rendered timeline incomplete")
	}
}

// --- E2 -------------------------------------------------------------

func TestFig2SeriesShape(t *testing.T) {
	p := costmodel.ODROIDXU4()
	pts := Fig2Series(p, nil)
	if len(pts) != len(Fig2Sizes()) {
		t.Fatalf("%d points", len(pts))
	}
	// Hash lines strictly increase with size; signature lines are
	// hash + constant.
	for i := 1; i < len(pts); i++ {
		for _, h := range suite.HashIDs() {
			if pts[i].HashTimes[h] <= pts[i-1].HashTimes[h] {
				t.Fatalf("%s not increasing at %d bytes", h, pts[i].Size)
			}
		}
	}
	// Paper anchor: at 2 GB, SHA-256 ≈ 14 s.
	last := pts[len(pts)-1]
	if s := last.HashTimes[suite.SHA256].Seconds(); s < 12 || s > 17 {
		t.Fatalf("2 GiB SHA-256 = %v s, want ~14-15", s)
	}
	// At 1 MB+, signature overhead is "comparatively insignificant":
	// hash+sign within 2x of pure hash for ECDSA.
	var at4MB Fig2Point
	for _, pt := range pts {
		if pt.Size == 4<<20 {
			at4MB = pt
		}
	}
	hash := at4MB.HashTimes[suite.SHA256]
	if sig := at4MB.SigTimes[suite.ECDSA256]; sig > 2*hash {
		t.Fatalf("ECDSA-P256 at 4MiB: %v vs hash %v — signature should be insignificant", sig, hash)
	}
	// Rendered output sane (the crossover sizes themselves are pinned
	// in the costmodel tests).
	out := RenderFig2(pts, p)
	if !strings.Contains(out, "crossover") || !strings.Contains(out, "SHA-256") {
		t.Fatal("render incomplete")
	}
}

// --- E4 -------------------------------------------------------------

func TestFig4WindowsMatchPaper(t *testing.T) {
	rows := Fig4Windows()
	byMech := map[core.MechanismID]Fig4Row{}
	for _, r := range rows {
		byMech[r.Mechanism] = r
	}

	// Writes at A and D land for every mechanism and never break any
	// consistency (Fig. 4: "A change to M at time A or D has no
	// effect").
	for _, r := range rows {
		if !r.WriteLanded["A"] || !r.WriteLanded["D"] {
			t.Errorf("%s: A/D probes denied: %+v", r.Mechanism, r.WriteLanded)
		}
	}

	// SMART: atomic defers B and C past the measurement: consistent
	// everywhere measured.
	smart := byMech[core.SMART]
	if !smart.ConsistentAtTS || !smart.ConsistentAtTE {
		t.Errorf("SMART windows: %+v", smart)
	}

	// No-Lock: B and C land mid-measurement; consistency with both
	// endpoints broken.
	nolock := byMech[core.NoLock]
	if !nolock.WriteLanded["B"] || !nolock.WriteLanded["C"] {
		t.Errorf("No-Lock: B/C should land: %+v", nolock.WriteLanded)
	}
	if nolock.ConsistentAtTS || nolock.ConsistentAtTE {
		t.Errorf("No-Lock windows: %+v", nolock)
	}

	// All-Lock: B and C denied; consistent at t_s and t_e but NOT
	// necessarily at t_r (D... D lands after t_r; consistent at t_r
	// too since probe D is after it). All-Lock-Ext: consistent through
	// t_r.
	allLock := byMech[core.AllLock]
	if allLock.WriteLanded["B"] || allLock.WriteLanded["C"] {
		t.Errorf("All-Lock: B/C landed: %+v", allLock.WriteLanded)
	}
	if !allLock.ConsistentAtTS || !allLock.ConsistentAtTE {
		t.Errorf("All-Lock windows: %+v", allLock)
	}
	allExt := byMech[core.AllLockExt]
	if !allExt.ConsistentAtTS || !allExt.ConsistentAtTE || !allExt.ConsistentAtTR {
		t.Errorf("All-Lock-Ext windows: %+v", allExt)
	}

	// Dec-Lock: consistent with t_s only (B denied — block 30 still
	// locked; C lands on released block 2, breaking t_e).
	dec := byMech[core.DecLock]
	if !dec.ConsistentAtTS || dec.ConsistentAtTE {
		t.Errorf("Dec-Lock windows: %+v", dec)
	}
	if !dec.WriteLanded["C"] {
		t.Errorf("Dec-Lock: C (early, already-released block) should land")
	}

	// Inc-Lock: consistent with t_e only (B lands on a late unlocked
	// block, breaking t_s; C denied).
	inc := byMech[core.IncLock]
	if inc.ConsistentAtTS || !inc.ConsistentAtTE {
		t.Errorf("Inc-Lock windows: %+v", inc)
	}
	if !inc.WriteLanded["B"] || inc.WriteLanded["C"] {
		t.Errorf("Inc-Lock probes: %+v", inc.WriteLanded)
	}
	// Inc-Lock-Ext additionally holds through t_r.
	incExt := byMech[core.IncLockExt]
	if !incExt.ConsistentAtTE || !incExt.ConsistentAtTR {
		t.Errorf("Inc-Lock-Ext windows: %+v", incExt)
	}

	if out := RenderFig4(rows); !strings.Contains(out, "Dec-Lock") {
		t.Fatal("render incomplete")
	}
}

// --- E5 -------------------------------------------------------------

func TestE5FireAlarmShape(t *testing.T) {
	if testing.Short() {
		t.Skip("hashes tens of MiB")
	}
	cfg := E5Config{
		SimSizes:   []int{1 << 20, 16 << 20},
		Mechanisms: []core.MechanismID{core.SMART, core.NoLock},
	}
	rows := E5FireAlarm(cfg)
	get := func(id core.MechanismID, size int) E5Row {
		for _, r := range rows {
			if r.Mechanism == id && r.MemBytes == size {
				return r
			}
		}
		t.Fatalf("missing row %s/%d", id, size)
		return E5Row{}
	}

	// Atomic latency grows with memory; interruptible stays ~sensor
	// period.
	s1, s16 := get(core.SMART, 1<<20), get(core.SMART, 16<<20)
	if s16.MeasureTime <= s1.MeasureTime {
		t.Fatal("measure time must grow with memory")
	}
	n16 := get(core.NoLock, 16<<20)
	if n16.AlarmLatency > 1100*sim.Millisecond {
		t.Fatalf("No-Lock latency %v, want ~<=1s", n16.AlarmLatency)
	}

	// Analytic 1 GB row: the paper's ≈7 s example.
	g := get(core.SMART, 1000<<20)
	if !g.Analytic {
		t.Fatal("1 GB row should be analytic")
	}
	if s := g.MeasureTime.Seconds(); s < 6 || s > 8 {
		t.Fatalf("1 GB MP = %vs, want ~7", s)
	}
	if g.DeadlineMet {
		t.Fatal("1 GB atomic attestation must miss a 1s alarm deadline")
	}
	if gn := get(core.NoLock, 1000<<20); !gn.DeadlineMet {
		t.Fatal("interruptible attestation must meet the deadline at 1 GB")
	}
	if out := RenderE5(rows); !strings.Contains(out, "MISSED") || !strings.Contains(out, "MET") {
		t.Fatal("render incomplete")
	}
}

// --- E6 -------------------------------------------------------------

func TestE6MatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	rows := E6SMARM(E6Config{BlockCounts: []int{32}, Rounds: []int{1, 2}, Trials: 300, Seed: 9})
	for _, r := range rows {
		tol := 3*qoa.BinomialCI(r.Analytic, r.Trials)/1.96 + 0.02 // ~3 sigma + slack
		if math.Abs(r.MCRate-r.Analytic) > tol {
			t.Errorf("n=%d k=%d: MC %.3f vs analytic %.3f (tol %.3f)",
				r.Blocks, r.Rounds, r.MCRate, r.Analytic, tol)
		}
	}
	if out := RenderE6(rows); !strings.Contains(out, "e⁻¹") {
		t.Fatal("render incomplete")
	}
}

// --- E7 -------------------------------------------------------------

func TestE7MatchesGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	tm := 10 * sim.Second
	rows := E7QoA(E7Config{TM: tm, Dwells: []sim.Duration{2 * sim.Second, 5 * sim.Second, 12 * sim.Second}, Trials: 60, Seed: 3})
	for _, r := range rows {
		tol := 3*qoa.BinomialCI(r.Analytic, r.Trials)/1.96 + 0.05
		if math.Abs(r.MCRate-r.Analytic) > tol {
			t.Errorf("dwell %v: MC %.3f vs analytic %.3f (tol %.3f)", r.Dwell, r.MCRate, r.Analytic, tol)
		}
	}
	// Dwell > T_M must always be detected.
	last := rows[len(rows)-1]
	if last.MCRate < 0.99 {
		t.Errorf("dwell %v > T_M %v: detection %.3f, want 1.0", last.Dwell, tm, last.MCRate)
	}
	if out := RenderE7(rows); !strings.Contains(out, "T_M") {
		t.Fatal("render incomplete")
	}
}

// --- E8 -------------------------------------------------------------

func TestE8Properties(t *testing.T) {
	if testing.Short() {
		t.Skip("many simulated protocol runs")
	}
	res := E8SeED(E8Config{LossRates: []float64{0, 0.2}, Horizon: 60 * sim.Second, ScheduleTrials: 15, Seed: 12})

	// Lossless: no false positives. Lossy: some.
	if res.LossRows[0].Missing != 0 {
		t.Errorf("lossless run had %d missing alarms", res.LossRows[0].Missing)
	}
	if res.LossRows[1].Missing == 0 {
		t.Error("20%% loss produced no watchdog alarms")
	}
	if res.LossRows[0].Accepted == 0 {
		t.Error("no reports accepted on clean channel")
	}

	// Replays all rejected.
	if res.ReplayInjected == 0 {
		t.Fatal("no replays injected")
	}
	if res.ReplayAccepted != 0 {
		t.Errorf("%d replayed reports accepted", res.ReplayAccepted)
	}

	// Secret schedule catches most periodic hiders; leaked schedule
	// lets the malware escape every time.
	if res.SecretEscapes == res.ScheduleTrials {
		t.Error("secret schedule never detected the transient malware")
	}
	if res.LeakedEscapes != res.ScheduleTrials {
		t.Errorf("leaked schedule: %d/%d escapes, want all", res.LeakedEscapes, res.ScheduleTrials)
	}
	if out := RenderE8(res); !strings.Contains(out, "replay") {
		t.Fatal("render incomplete")
	}
}

// --- Ablations -------------------------------------------------------

func TestAblationSMARMBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	rows := AblationSMARMBlocks([]int{8, 64}, 120, 2)
	if len(rows) != 2 {
		t.Fatal("rows")
	}
	// Latency shrinks with finer blocks; escape stays in the e^-1
	// neighborhood.
	if rows[1].PreemptLatency >= rows[0].PreemptLatency {
		t.Error("finer blocks should shrink preemption latency")
	}
	for _, r := range rows {
		if math.Abs(r.EscapeMC-r.EscapeAnalytic) > 0.15 {
			t.Errorf("blocks=%d: MC %.3f vs analytic %.3f", r.Blocks, r.EscapeMC, r.EscapeAnalytic)
		}
	}
	if out := RenderA1(rows); !strings.Contains(out, "blocks") {
		t.Fatal("render")
	}
}

func TestAblationLockGranularity(t *testing.T) {
	rows := AblationLockGranularity([]int{8, 64}, 2)
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[string(r.Mechanism)+"/"+itoa(r.Blocks)] = r.Availability
	}
	// All-Lock availability ~0 regardless of granularity; sliding
	// locks sit in between and beat All-Lock.
	if byKey["All-Lock/64"] > 0.2 {
		t.Errorf("All-Lock availability %.2f", byKey["All-Lock/64"])
	}
	if byKey["Dec-Lock/64"] <= byKey["All-Lock/64"] {
		t.Error("Dec-Lock should beat All-Lock availability")
	}
	if byKey["Inc-Lock/64"] <= byKey["All-Lock/64"] {
		t.Error("Inc-Lock should beat All-Lock availability")
	}
	if out := RenderA2(rows); !strings.Contains(out, "availability") {
		t.Fatal("render")
	}
}

func itoa(n int) string {
	return strings.TrimSpace(strings.ReplaceAll(strings.Repeat(" ", 0)+fmtInt(n), " ", ""))
}

func fmtInt(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestAblationErasmusScheduling(t *testing.T) {
	if testing.Short() {
		t.Skip("long horizon")
	}
	rows := AblationErasmusScheduling(4)
	fixed, aware := rows[0], rows[1]
	if aware.Deferred == 0 {
		t.Error("context-aware run never deferred")
	}
	// The interference metric: a fixed schedule delays sensor passes
	// by up to one atomic measurement (~59 ms); context awareness
	// keeps the sensor's queueing delay negligible.
	if fixed.SensorMaxWait < 30*sim.Millisecond {
		t.Errorf("fixed schedule sensor wait %v, expected collisions ~59ms", fixed.SensorMaxWait)
	}
	if aware.SensorMaxWait >= fixed.SensorMaxWait/2 {
		t.Errorf("context-aware sensor wait %v vs fixed %v: awareness should help", aware.SensorMaxWait, fixed.SensorMaxWait)
	}
	if aware.WorstLatency > fixed.WorstLatency {
		t.Errorf("context-aware worst latency %v should not exceed fixed %v", aware.WorstLatency, fixed.WorstLatency)
	}
	if aware.Measurements == 0 {
		t.Error("context-aware run starved attestation entirely")
	}
	if out := RenderA3(rows); !strings.Contains(out, "context-aware") {
		t.Fatal("render")
	}
}

func TestAblationSwarmScale(t *testing.T) {
	rows := AblationSwarmScale([]int{2, 8}, 6)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 2 sizes x 2 modes", len(rows))
	}
	byKey := map[string]A4Row{}
	for _, r := range rows {
		if r.Verified != r.Nodes {
			t.Errorf("%s n=%d: verified %d", r.Mode, r.Nodes, r.Verified)
		}
		byKey[r.Mode+"/"+fmtInt(r.Nodes)] = r
	}
	// Aggregation: exactly 2(n-1) messages.
	if got := byKey["aggregate/8"].Messages; got != 14 {
		t.Errorf("aggregate n=8: %d messages, want 14", got)
	}
	// Relay: (n-1) requests + sum-of-depths relays; costs more.
	if byKey["relay/8"].Messages <= byKey["aggregate/8"].Messages {
		t.Error("relay should move more messages than aggregation")
	}
	if byKey["aggregate/8"].Completion <= byKey["aggregate/2"].Completion {
		t.Error("deeper tree should take longer")
	}
	if out := RenderA4(rows); !strings.Contains(out, "LISA") {
		t.Fatal("render")
	}
}

func TestAblationDeviceClass(t *testing.T) {
	rows := AblationDeviceClass(sim.Second)
	if len(rows) != 2 {
		t.Fatal("rows")
	}
	fast, slow := rows[0], rows[1]
	if fast.Profile != "ODROID-XU4" || slow.Profile != "LowEndMCU" {
		t.Fatalf("profiles: %s / %s", fast.Profile, slow.Profile)
	}
	// The ODROID can atomically attest ~128 MiB within 1 s (7 ns/B);
	// the 40x slower MCU manages ~40x less.
	if fast.MaxAtomicBytes < 64<<20 || fast.MaxAtomicBytes > 256<<20 {
		t.Errorf("ODROID max atomic %d", fast.MaxAtomicBytes)
	}
	if slow.MaxAtomicBytes >= fast.MaxAtomicBytes/16 {
		t.Errorf("low-end max atomic %d vs fast %d: should shrink ~40x", slow.MaxAtomicBytes, fast.MaxAtomicBytes)
	}
	if slow.InterruptibleLatency <= fast.InterruptibleLatency {
		t.Error("interruptible latency should grow on slower device")
	}
	// Both interruptible latencies stay far below the deadline.
	if slow.InterruptibleLatency > 10*sim.Millisecond {
		t.Errorf("low-end interruptible latency %v", slow.InterruptibleLatency)
	}
	// Full-sim cross-check: SMART at 1 MiB delays the alarm by ~the
	// measurement on each profile, so the slow device shows ~40x more.
	if slow.SimLatency < 10*fast.SimLatency {
		t.Errorf("sim latency %v vs %v: expected ~40x", slow.SimLatency, fast.SimLatency)
	}
	if out := RenderA5(rows, sim.Second); !strings.Contains(out, "LowEndMCU") {
		t.Fatal("render")
	}
}

func TestE9SoftwareRA(t *testing.T) {
	rows := E9SoftwareRA(E9Config{
		Overheads:  []int{40},
		Jitters:    []sim.Duration{100 * sim.Microsecond, 50 * sim.Millisecond},
		Iterations: 1_000_000,
		Trials:     10,
		Seed:       7,
	})
	tight, loose := rows[0], rows[1]
	// 40% overhead at 1M iterations = 20ms. A 0.1ms-jitter budget
	// (~0.2ms headroom) always catches it; a 50ms budget never does.
	if tight.FalseNegatives != 0 {
		t.Errorf("tight budget: %d false negatives", tight.FalseNegatives)
	}
	if loose.FalseNegatives != loose.Trials {
		t.Errorf("loose budget: %d/%d false negatives, want all", loose.FalseNegatives, loose.Trials)
	}
	// Honest devices stay accepted at both settings (threshold covers
	// 2x jitter).
	if tight.FalsePositives != 0 || loose.FalsePositives != 0 {
		t.Errorf("false positives: %d / %d", tight.FalsePositives, loose.FalsePositives)
	}
	if out := RenderE9(rows); !strings.Contains(out, "false-neg") {
		t.Fatal("render")
	}
}

func TestE10DoS(t *testing.T) {
	if testing.Short() {
		t.Skip("long horizon simulations")
	}
	rows := E10DoS(E10Config{
		FloodPeriods: []sim.Duration{2 * sim.Second, 100 * sim.Millisecond},
		Horizon:      30 * sim.Second,
		Seed:         3,
	})
	get := func(scheme string, period sim.Duration) E10Row {
		for _, r := range rows {
			if r.Scheme == scheme && r.FloodPeriod == period {
				return r
			}
		}
		t.Fatalf("missing row %s/%v", scheme, period)
		return E10Row{}
	}
	odSlow := get("on-demand", 2*sim.Second)
	odFast := get("on-demand", 100*sim.Millisecond)
	seedSlow := get("SeED", 2*sim.Second)
	seedFast := get("SeED", 100*sim.Millisecond)

	// On-demand: CPU share grows with flood rate and the app suffers.
	if odFast.CPUAttestPct <= odSlow.CPUAttestPct {
		t.Errorf("on-demand CPU share did not grow with flood: %.1f vs %.1f",
			odFast.CPUAttestPct, odSlow.CPUAttestPct)
	}
	if odFast.CPUAttestPct < 30 {
		t.Errorf("intense flood should dominate CPU; got %.1f%%", odFast.CPUAttestPct)
	}
	if odFast.WorstLatency <= seedFast.WorstLatency {
		t.Error("on-demand under flood should have worse latency than SeED")
	}
	// SeED: flood-invariant (self-scheduled measurements only).
	if seedFast.Served != seedSlow.Served {
		t.Errorf("SeED served %d vs %d: must be flood-invariant", seedFast.Served, seedSlow.Served)
	}
	if diff := seedFast.CPUAttestPct - seedSlow.CPUAttestPct; diff > 0.01 || diff < -0.01 {
		t.Errorf("SeED CPU share moved with flood: %.2f vs %.2f", seedFast.CPUAttestPct, seedSlow.CPUAttestPct)
	}
	if out := RenderE10(rows); !strings.Contains(out, "SeED") {
		t.Fatal("render")
	}
}

func TestCSVExports(t *testing.T) {
	var buf strings.Builder
	pts := Fig2Series(nil, []int{1 << 10, 1 << 20})
	if err := Fig2CSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("fig2 csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "bytes,") || !strings.Contains(lines[0], "SHA-256+RSA-2048") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1024,") {
		t.Fatalf("row %q", lines[1])
	}

	buf.Reset()
	if err := E6CSV(&buf, []E6Row{{Blocks: 32, Rounds: 1, Trials: 10, MCRate: 0.4, Analytic: 0.36}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "32,1,10,0.400000,0.360000") {
		t.Fatalf("e6 csv: %q", buf.String())
	}

	buf.Reset()
	if err := E7CSV(&buf, []E7Row{{TM: 10 * sim.Second, Dwell: 2 * sim.Second, Trials: 5, MCRate: 0.2, Analytic: 0.2}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "10.000,2.000,5") {
		t.Fatalf("e7 csv: %q", buf.String())
	}

	buf.Reset()
	if err := E5CSV(&buf, []E5Row{{Mechanism: "SMART", MemBytes: 1 << 20, MeasureTime: sim.Second, AlarmLatency: 2 * sim.Second, DeadlineMet: false, Analytic: true}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SMART,1048576,1.000000,2.000000,false,analytic") {
		t.Fatalf("e5 csv: %q", buf.String())
	}
}
