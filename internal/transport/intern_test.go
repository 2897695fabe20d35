package transport

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"saferatt/internal/core"
)

// TestInternTableBounded pins the flood-resistance contract: churning
// many more distinct names through the table than its cap admits must
// leave the table at the cap, still serving correct strings for both
// resident and past-cap names.
func TestInternTableBounded(t *testing.T) {
	tbl := newInternTable(64)
	const churn = 10000
	for i := 0; i < churn; i++ {
		name := fmt.Sprintf("flood-peer-%05d", i)
		if got, _ := tbl.get([]byte(name)); got != name {
			t.Fatalf("get(%q) = %q", name, got)
		}
	}
	if n := int(tbl.Len()); n != 64 {
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
	// lookup finds what get interned and never inserts.
	if id := tbl.lookup("flood-peer-00063"); id != 64 {
		t.Fatalf("lookup of a resident name = %d, want 64", id)
	}
	if id := tbl.lookup("flood-peer-09998"); id != 0 {
		t.Fatalf("lookup of a refused name = %d, want 0", id)
	}
	if n := int(tbl.Len()); n != 64 {
		t.Fatalf("lookups grew the table to %d", n)
	}
}

// TestInternTableConcurrentChurn races many goroutines inserting
// distinct and shared names against a tiny cap; the bound must hold
// and every returned string must be correct.
func TestInternTableConcurrentChurn(t *testing.T) {
	tbl := newInternTable(32)
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
	if n := int(tbl.Len()); n > 32 {
		t.Fatalf("table grew to %d entries under concurrent churn (cap 32)", n)
	}
}

// TestInternNeverAliasesInput pins the ownership contract the
// zero-copy receive path depends on: the string get returns — whether
// freshly interned, already resident, or past-cap — must never share
// bytes with the caller's buffer, because that buffer is a pooled
// receive buffer about to be overwritten.
func TestInternNeverAliasesInput(t *testing.T) {
	tbl := newInternTable(2)
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

// TestInternBytesPerName pins what the name table itself keeps for a
// name: 50 000 10-byte names interned into an empty table may settle at
// most 62 B a name (56.1 B measured). Each costs a 16-byte string header
// in a chunk, its bytes (a 16-byte size class), and an 8-byte index word
// at between ⅜ and ¾ load — 50 000 names sit at 0.38. The map of
// (string, ID) entries this replaced cost 79.0 B.
func TestInternBytesPerName(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is meaningless under the race detector")
	}
	const names = 50_000
	in := make([][]byte, names)
	for i := range in {
		in[i] = fmt.Appendf(nil, "name-%05d", i)
	}
	before := settledHeap()
	tbl := newInternTable(internCap)
	for _, b := range in {
		tbl.get(b)
	}
	perName := float64(int64(settledHeap()-before)) / names
	runtime.KeepAlive(tbl)
	runtime.KeepAlive(in)
	t.Logf("%.1f heap bytes per interned name", perName)
	if perName > 62 {
		t.Fatalf("%.1f heap bytes per interned name, want <= 62", perName)
	}
}

// TestTokensStayOutOfNameTable pins that the strings a frame carries
// besides its peer names — report mechanisms and schemes, the image id —
// never take a name ID: a frame of 10 000 reports, each with a
// mechanism nobody has sent before, leaves the name table as it was and
// still decodes to the frame it was encoded from, byte for byte.
func TestTokensStayOutOfNameTable(t *testing.T) {
	// A table of its own, so the junk crowds no later test's tokens out
	// of the process's table.
	saved := tokens
	tokens = newInternTable(tokenCap)
	defer func() { tokens = saved }()

	m := &Msg{From: "tok-prv", To: "tok-vrf", Kind: KindCollection, Image: "tok-img@v3", ReqID: 1}
	for i := 0; i < 10_000; i++ {
		m.Reports = append(m.Reports, &core.Report{
			Mechanism: core.MechanismID(fmt.Sprintf("junk-mech-%05d", i)),
			Scheme:    fmt.Sprintf("junk-scheme-%d", i%7),
			Nonce:     []byte{byte(i), byte(i >> 8)},
			Tag:       []byte{0xAB},
			Counter:   uint64(i),
		})
	}
	buf := AppendFrame(nil, m)
	interned.get([]byte(m.From))
	interned.get([]byte(m.To))
	interned.mu.RLock()
	names := interned.Len()
	interned.mu.RUnlock()

	var f Frame
	if err := DecodeFrameInto(buf, &f); err != nil {
		t.Fatal(err)
	}
	interned.mu.RLock()
	after := interned.Len()
	interned.mu.RUnlock()
	if after != names {
		t.Fatalf("decoding grew the name table from %d to %d names", names, after)
	}
	if tokens.Len() != tokenCap {
		t.Fatalf("token table holds %d strings, want its cap %d", tokens.Len(), tokenCap)
	}
	back := f.Msg()
	if got := AppendFrame(nil, &back); !bytes.Equal(got, buf) {
		t.Fatal("a frame of made-up mechanisms did not re-encode byte for byte")
	}
}
