package experiments

import (
	"fmt"
	"strings"

	"saferatt/internal/core"
	"saferatt/internal/mem"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
)

// Fig4Row reproduces the paper's Figure 4 discussion as data: for one
// lock policy, a measurement runs while probe writes land at the
// figure's four instants — A (before t_s), B (early in computation),
// C (late in computation), D (after t_r) — and the row reports at which
// reference instants the measurement remains consistent.
type Fig4Row struct {
	Mechanism core.MechanismID
	// WriteLanded records which probe writes actually modified memory
	// (locks deny some), keyed "A","B","C","D".
	WriteLanded map[string]bool
	// ConsistentAt reports consistency of the measurement with memory
	// at t_s, t_e and t_r.
	ConsistentAtTS bool
	ConsistentAtTE bool
	ConsistentAtTR bool
	TS, TE, TR     sim.Time
}

// Fig4Windows runs the probe experiment for every lock-relevant
// mechanism.
func Fig4Windows() []Fig4Row {
	mechs := []core.MechanismID{core.SMART, core.NoLock, core.AllLock,
		core.AllLockExt, core.DecLock, core.IncLock, core.IncLockExt}
	rows := make([]Fig4Row, 0, len(mechs))
	for _, id := range mechs {
		rows = append(rows, fig4One(id))
	}
	return rows
}

func fig4One(id core.MechanismID) Fig4Row {
	const (
		blocks    = 32
		blockSize = 4096
	)
	opts := core.Preset(id, suite.SHA256)
	// Consistency judgment replays the write log.
	w := NewWorld(WorldConfig{EngineConfig: EngineConfig{Seed: 77},
		MemSize: blocks * blockSize, BlockSize: blockSize,
		ROMBlocks: 1, Opts: opts, LogWrites: true})
	blockTime := w.Dev.Profile.StreamTime(opts.Hash, blockSize)
	span := sim.Duration(blocks) * blockTime

	writer := w.Dev.NewTask("writer", appPrio)
	landed := map[string]bool{}
	probeAt := func(label string, at sim.Time, block int) {
		w.K.At(at, func() {
			writer.Submit(sim.Microsecond, func() {
				err := w.Mem.Write(block*blockSize+16, []byte{0xD7})
				landed[label] = err == nil
			})
		})
	}

	// Measurement begins at 1ms. Probe writes:
	//   A: well before t_s;
	//   B: ~25% into the computation, to a LATE block (covered after
	//      the write — the paper's "change at B" case);
	//   C: ~75% into the computation, to an EARLY block (covered
	//      before the write);
	//   D: after t_r.
	start := sim.Time(sim.Millisecond)
	probeAt("A", start-sim.Time(500*sim.Microsecond), 20)
	probeAt("B", start.Add(span/4), blocks-2)
	probeAt("C", start.Add(3*span/4), 2)

	var rep *core.Report
	s, begin := w.newSession(opts, []byte("fig4"), mpPrio, core.Hooks{}, func(rr []*core.Report) { rep = rr[0] })
	w.K.At(start, begin)
	w.K.Run()

	// t_r: one measurement-span after t_e, then release extended locks
	// and fire probe D after that.
	tr := w.K.Now().Add(span)
	w.K.RunUntil(tr)
	s.Release()
	probeAt("D", tr.Add(span/4), 10)
	w.K.Run()

	log := w.Mem.WriteLog()
	return Fig4Row{
		Mechanism:      id,
		WriteLanded:    landed,
		ConsistentAtTS: mem.ConsistentAt(log, rep.Coverage, rep.TS),
		ConsistentAtTE: mem.ConsistentAt(log, rep.Coverage, rep.TE),
		ConsistentAtTR: mem.ConsistentAt(log, rep.Coverage, tr),
		TS:             rep.TS, TE: rep.TE, TR: tr,
	}
}

// RenderFig4 prints the window table.
func RenderFig4(rows []Fig4Row) string {
	var b strings.Builder
	b.WriteString("Figure 4 (measured): probe writes at A/B/C/D and consistency of the measurement\n")
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s %8s %8s %8s\n",
		"mechanism", "A lands", "B lands", "C lands", "D lands", "cons@ts", "cons@te", "cons@tr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8v %8v %8v %8v %8v %8v %8v\n",
			r.Mechanism, r.WriteLanded["A"], r.WriteLanded["B"], r.WriteLanded["C"],
			r.WriteLanded["D"], r.ConsistentAtTS, r.ConsistentAtTE, r.ConsistentAtTR)
	}
	return b.String()
}
