package trace

import (
	"slices"
	"strings"
	"testing"

	"saferatt/internal/sim"
)

// filter returns the events of l of the given kinds, in order.
func filter(l *Log, kinds ...Kind) []Event {
	var out []Event
	for _, e := range l.events {
		if slices.Contains(kinds, e.Kind) {
			out = append(out, e)
		}
	}
	return out
}

func TestAddAndEvents(t *testing.T) {
	var l Log
	l.Add(0, KindMeasureStart, "mp", "t_s")
	l.Addf(sim.Time(sim.Second), KindMeasureEnd, "mp", "round %d", 3)
	evs := filter(&l, KindMeasureStart, KindMeasureEnd)
	if len(evs) != 2 || l.Len() != 2 {
		t.Fatalf("events %v", evs)
	}
	if evs[1].Detail != "round 3" {
		t.Fatalf("Addf detail %q", evs[1].Detail)
	}
}

// TestAddCatBuildsDetailOnlyWhenKept: a kept log records prefix+name; a
// nil log — the state of every world that asks for no trace — allocates
// nothing per event, which "prefix"+name at the call site did.
func TestAddCatBuildsDetailOnlyWhenKept(t *testing.T) {
	var l Log
	name := strings.Repeat("p", 8) // not a constant: the concatenation must allocate
	l.AddCat(0, KindRequestSent, "vrf", "to ", name)
	if got := filter(&l, KindRequestSent)[0].Detail; got != "to pppppppp" {
		t.Fatalf("AddCat detail %q", got)
	}
	var none *Log
	if n := testing.AllocsPerRun(100, func() { none.AddCat(0, KindRequestSent, "vrf", "to ", name) }); n != 0 {
		t.Fatalf("AddCat on a nil log: %v allocs/op, want 0", n)
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(0, KindWrite, "x", "y") // must not panic
	l.Addf(0, KindWrite, "x", "%d", 1)
	if l.Len() != 0 {
		t.Fatal("nil log should be empty")
	}
	if _, ok := l.First(KindWrite); ok {
		t.Fatal("nil First")
	}
	if l.Render() != "" {
		t.Fatal("nil Render")
	}
}

func TestFilterFirstLast(t *testing.T) {
	var l Log
	l.Add(1, KindBlockMeasured, "mp", "a")
	l.Add(2, KindWriteFault, "app", "b")
	l.Add(3, KindBlockMeasured, "mp", "c")
	got := filter(&l, KindBlockMeasured)
	if len(got) != 2 || got[0].Detail != "a" || got[1].Detail != "c" {
		t.Fatalf("filter %v", got)
	}
	first, ok := l.First(KindBlockMeasured)
	if !ok || first.Detail != "a" {
		t.Fatalf("first %v", first)
	}
	if _, ok := l.First(KindMalwareErase); ok {
		t.Fatal("found nonexistent kind")
	}
}

func TestRenderFormat(t *testing.T) {
	var l Log
	l.Add(sim.Time(1500*sim.Millisecond), KindMeasureStart, "mp", "t_s")
	out := l.Render()
	if !strings.Contains(out, "1.500000s") || !strings.Contains(out, "measure-start") || !strings.Contains(out, "mp") {
		t.Fatalf("render %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("render should end with newline")
	}
	if s := filter(&l, KindMeasureStart)[0].String(); !strings.Contains(s, "t_s") {
		t.Fatalf("event string %q", s)
	}
}
