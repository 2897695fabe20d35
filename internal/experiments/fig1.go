package experiments

import (
	"fmt"
	"strings"

	"saferatt/internal/core"
	"saferatt/internal/prover"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/trace"
)

// Fig1Result is the reproduced on-demand RA timeline of Figure 1: the
// ordered protocol instants for one challenge/measure/report/verify
// exchange, including the deferral between request arrival and t_s that
// the figure calls out.
type Fig1Result struct {
	RequestSent     sim.Time
	RequestReceived sim.Time
	TS              sim.Time // measurement starts
	TE              sim.Time // measurement ends
	ReportSent      sim.Time
	ReportReceived  sim.Time
	Verified        sim.Time
	Timeline        string // rendered event log
}

// Fig1Timeline runs one on-demand SMART attestation and extracts the
// Figure 1 instants.
func Fig1Timeline() Fig1Result {
	// deferral is "termination of the previously running task": how
	// long higher-priority work keeps the device after the request arrives.
	const latency, deferral = 20 * sim.Millisecond, 50 * sim.Millisecond
	opts := core.Preset(core.SMART, suite.SHA256)
	w := NewWorld(WorldConfig{EngineConfig: EngineConfig{Seed: 1},
		MemSize: 1 << 20, BlockSize: 4096, Opts: opts, Latency: latency})

	if _, err := prover.NewProver("prv", w.Dev, w.Tr, opts, 5); err != nil {
		panic("experiments: " + err.Error())
	}
	// The busy previous task: occupies the CPU at request arrival so
	// MP is deferred (the figure's gap between arrival and t_s).
	busy := w.Dev.NewTask("previous-task", 50)
	w.K.At(0, func() { busy.Submit(latency+deferral, nil) })

	w.Ver.Challenge("prv")
	w.K.Run()

	at := func(kind trace.Kind) sim.Time {
		ev, ok := w.Log.First(kind)
		if !ok {
			panic("experiments: missing timeline event " + string(kind))
		}
		return ev.At
	}
	res := Fig1Result{
		RequestSent:     at(trace.KindRequestSent),
		RequestReceived: at(trace.KindRequestReceived),
		TS:              at(trace.KindMeasureStart),
		TE:              at(trace.KindMeasureEnd),
		ReportSent:      at(trace.KindReportSent),
		ReportReceived:  at(trace.KindReportReceived),
		Verified:        at(trace.KindReportVerified),
	}
	res.Timeline = renderFig1(res)
	return res
}

func renderFig1(r Fig1Result) string {
	var b strings.Builder
	b.WriteString("Figure 1: on-demand RA timeline (simulated)\n")
	rows := []struct {
		label string
		at    sim.Time
	}{
		{"Vrf sends challenge", r.RequestSent},
		{"Prv receives request", r.RequestReceived},
		{"t_s: MP starts (after deferral)", r.TS},
		{"t_e: MP ends", r.TE},
		{"Prv sends report", r.ReportSent},
		{"Vrf receives report", r.ReportReceived},
		{"Vrf verifies report", r.Verified},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "  %-34s %12.6f s\n", row.label, float64(row.at)/float64(sim.Second))
	}
	fmt.Fprintf(&b, "  deferral (arrival to t_s): %v\n", r.TS.Sub(r.RequestReceived))
	fmt.Fprintf(&b, "  measurement (t_s to t_e):  %v\n", r.TE.Sub(r.TS))
	return b.String()
}
