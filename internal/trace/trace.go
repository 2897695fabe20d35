// Package trace records timestamped simulation events so experiments
// can regenerate the paper's timeline figures (Fig. 1 on-demand RA
// timeline, Fig. 4 lock/consistency timeline) as data.
package trace

import (
	"fmt"
	"strings"

	"saferatt/internal/sim"
)

// Kind classifies a trace event.
type Kind string

// Event kinds emitted by the device, channel and attestation engine.
const (
	// Protocol timeline (Fig. 1).
	KindRequestSent     Kind = "request-sent"     // Vrf -> Prv challenge
	KindRequestReceived Kind = "request-received" // Prv got challenge
	KindMeasureStart    Kind = "measure-start"    // t_s
	KindMeasureEnd      Kind = "measure-end"      // t_e
	KindLockRelease     Kind = "lock-release"     // t_r
	KindReportSent      Kind = "report-sent"      // Prv -> Vrf report
	KindReportReceived  Kind = "report-received"
	KindReportVerified  Kind = "report-verified"

	// Device scheduling.
	KindTaskStart   Kind = "task-start"
	KindTaskPreempt Kind = "task-preempt"
	KindTaskDone    Kind = "task-done"
	KindInterrupt   Kind = "interrupt"

	// Memory / lock policy (Fig. 4).
	KindBlockMeasured Kind = "block-measured"
	KindBlockLocked   Kind = "block-locked"
	KindBlockUnlocked Kind = "block-unlocked"
	KindWriteFault    Kind = "write-fault"
	KindWrite         Kind = "write"

	// Adversary.
	KindMalwareInfect   Kind = "malware-infect"
	KindMalwareRelocate Kind = "malware-relocate"
	KindMalwareErase    Kind = "malware-erase"
	KindMalwareBlocked  Kind = "malware-blocked"
)

// Event is one timestamped occurrence.
type Event struct {
	At     sim.Time
	Kind   Kind
	Actor  string // task / party that caused it
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("%12.6fs  %-18s %-12s %s", float64(e.At)/float64(sim.Second), e.Kind, e.Actor, e.Detail)
}

// Log is an append-only event log. The zero value is ready to use. A
// nil *Log is valid and discards events, so callers never need to
// guard emission.
type Log struct {
	events []Event
}

// Add appends an event. Add on a nil log is a no-op.
func (l *Log) Add(at sim.Time, kind Kind, actor, detail string) {
	if l == nil {
		return
	}
	l.events = append(l.events, Event{At: at, Kind: kind, Actor: actor, Detail: detail})
}

// AddCat appends an event whose detail is prefix+name. A call site that
// builds "to "+prover itself pays for the string before Add can see the
// log is nil; here the concatenation waits for the nil check, so a trace
// nobody keeps costs no allocation per event.
func (l *Log) AddCat(at sim.Time, kind Kind, actor, prefix, name string) {
	if l == nil {
		return
	}
	l.Add(at, kind, actor, prefix+name)
}

// Addf appends an event with a formatted detail string.
func (l *Log) Addf(at sim.Time, kind Kind, actor, format string, args ...any) {
	if l == nil {
		return
	}
	l.Add(at, kind, actor, fmt.Sprintf(format, args...))
}

// Len returns the number of recorded events (0 for a nil log).
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// First returns the first event of the given kind, or a zero Event and
// false.
func (l *Log) First(kind Kind) (Event, bool) {
	if l == nil {
		return Event{}, false
	}
	for _, e := range l.events {
		if e.Kind == kind {
			return e, true
		}
	}
	return Event{}, false
}

// Render formats the whole log as an aligned multi-line string.
func (l *Log) Render() string {
	if l == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range l.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
