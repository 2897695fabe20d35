package transport

import (
	"fmt"
	"sync"
	"testing"
)

// TestInternTableBounded pins the flood-resistance contract: churning
// many more distinct names through the table than its cap admits must
// leave the table at the cap, still serving correct strings for both
// resident and past-cap names.
func TestInternTableBounded(t *testing.T) {
	tbl := internTable{m: make(map[string]internEntry), cap: 64}
	const churn = 10000
	for i := 0; i < churn; i++ {
		name := fmt.Sprintf("flood-peer-%05d", i)
		if got, _ := tbl.get([]byte(name)); got != name {
			t.Fatalf("get(%q) = %q", name, got)
		}
	}
	if n := len(tbl.m); n != 64 {
		t.Fatalf("table grew to %d entries under churn (cap 64)", n)
	}
	// Resident names keep resolving to the one canonical backing, and
	// to the ID given in order of interning, from 1.
	first, _ := tbl.get([]byte("flood-peer-00000"))
	again, _ := tbl.get([]byte("flood-peer-00000"))
	if first != again {
		t.Fatal("resident name changed value")
	}
	for i := 0; i < 64; i++ {
		if _, id := tbl.get([]byte(fmt.Sprintf("flood-peer-%05d", i))); id != uint32(i+1) {
			t.Fatalf("resident name %d has ID %d, want %d", i, id, i+1)
		}
	}
	// Past-cap names still round-trip correctly, just uninterned, and
	// without an ID.
	if got, id := tbl.get([]byte("flood-peer-09999")); got != "flood-peer-09999" {
		t.Fatalf("past-cap name mangled: %q", got)
	} else if id != 0 {
		t.Fatalf("past-cap name got ID %d, want 0", id)
	}
	if n := len(tbl.m); n != 64 {
		t.Fatalf("lookups grew the table to %d", n)
	}
}

// TestInternTableConcurrentChurn races many goroutines inserting
// distinct and shared names against a tiny cap; the bound must hold
// and every returned string must be correct.
func TestInternTableConcurrentChurn(t *testing.T) {
	tbl := internTable{m: make(map[string]internEntry), cap: 32}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				name := fmt.Sprintf("peer-%d-%d", g, i%100)
				if got, _ := tbl.get([]byte(name)); got != name {
					t.Errorf("get(%q) = %q", name, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(tbl.m); n > 32 {
		t.Fatalf("table grew to %d entries under concurrent churn (cap 32)", n)
	}
}

// TestInternNeverAliasesInput pins the ownership contract the
// zero-copy receive path depends on: the string get returns — whether
// freshly interned, already resident, or past-cap — must never share
// bytes with the caller's buffer, because that buffer is a pooled
// receive buffer about to be overwritten.
func TestInternNeverAliasesInput(t *testing.T) {
	tbl := internTable{m: make(map[string]internEntry), cap: 2}
	check := func(path string, buf []byte) {
		t.Helper()
		want := string(append([]byte(nil), buf...))
		got, _ := tbl.get(buf)
		if got != want {
			t.Fatalf("%s: get = %q, want %q", path, got, want)
		}
		for i := range buf {
			buf[i] = 'X'
		}
		if got != want {
			t.Fatalf("%s: interned string mutated to %q when buffer was overwritten", path, got)
		}
	}
	check("fresh intern", []byte("alias-a"))
	check("resident hit", []byte("alias-a"))
	check("fresh intern 2", []byte("alias-b"))
	check("past-cap copy", []byte("alias-c"))
	check("past-cap copy repeat", []byte("alias-c"))
}

// TestFrameNameSurvivesBufferReuse is the end-to-end form: a Frame
// decoded zero-copy holds From/To names that outlive the receive
// buffer, even when the intern table is past its cap (the global
// table is not resettable, so past-cap is exercised via fabricated
// names only if the cap has been hit; the ownership property itself
// is what this pins).
func TestFrameNameSurvivesBufferReuse(t *testing.T) {
	buf := AppendFrame(nil, &Msg{From: "prv-alias-test", To: "rattd-alias-test", Kind: KindHello, ReqID: 9})
	var f Frame
	if err := DecodeFrameInto(buf, &f); err != nil {
		t.Fatal(err)
	}
	from, to := f.From, f.To
	for i := range buf {
		buf[i] = 0xAA
	}
	if from != "prv-alias-test" || to != "rattd-alias-test" {
		t.Fatalf("frame names aliased the receive buffer: %q -> %q", from, to)
	}
	// A later decode of the same peer from a different buffer yields
	// the same canonical value.
	buf2 := AppendFrame(nil, &Msg{From: "prv-alias-test", To: "rattd-alias-test", Kind: KindHello, ReqID: 10})
	var f2 Frame
	if err := DecodeFrameInto(buf2, &f2); err != nil {
		t.Fatal(err)
	}
	if f2.From != from {
		t.Fatalf("re-decode changed the name: %q vs %q", f2.From, from)
	}
}
