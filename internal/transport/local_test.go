package transport

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// fleetNames returns n distinct prover names, allocated here so that a
// heap baseline read afterwards does not count their bytes.
func fleetNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("prv-%07d", i)
	}
	return names
}

// shuffled returns 0..n-1 in an order drawn from seed, so that the
// order names were bound in cannot help a probe.
func shuffled(n int, seed uint64) []int {
	return rand.New(rand.NewPCG(seed, 0x10ca1)).Perm(n)
}

// TestLocalBytesPerName pins what a Local keeps for a bound name:
// 200 000 names bound to one handler may settle at most 48 B a name
// (46.5 B measured). Each costs a 24-byte slot — the header of the
// caller's string beside an 8-byte handler — in a chunk of 256 (6 KiB
// and an allocation header, so a 6.4 KiB size class: 1.5 B a name), and
// an 8-byte index word at between ⅜ and ¾ load, where 200 000 names sit
// at 0.38 (21 B a name); the name's bytes stay the caller's. The Go map
// from name to handler this replaced cost 35.0 B a name at 200 000
// names, and 55.9 B at a million (where a Local costs 42.3 B).
func TestLocalBytesPerName(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is meaningless under the race detector")
	}
	const n = 200_000
	names := fleetNames(n)
	h := func(Msg) {}
	before := settledHeap()
	l := NewLocal()
	for _, name := range names {
		if err := l.Bind(name, h); err != nil {
			t.Fatal(err)
		}
	}
	perName := float64(int64(settledHeap()-before)) / n
	runtime.KeepAlive(l)
	runtime.KeepAlive(names)
	t.Logf("%.1f heap bytes per bound name", perName)
	if perName > 48 {
		t.Fatalf("%.1f heap bytes per bound name, want <= 48", perName)
	}
}

// TestLocalSendZeroAllocs pins the delivery path at zero allocations:
// a send to one of 10 000 bound names, or to a name never bound, is a
// hash, an index probe and a slot read.
func TestLocalSendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	names := fleetNames(10_000)
	l := NewLocal()
	var got int
	for _, name := range names {
		l.Bind(name, func(Msg) { got++ })
	}
	order := shuffled(len(names), 1)
	m := Msg{From: "vrf", Kind: KindVerdict, OK: true}
	i := 0
	allocs := testing.AllocsPerRun(10_000, func() {
		m.To = names[order[i%len(order)]]
		i++
		if err := l.Send(m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Local.Send allocated %.2f times per send, want 0", allocs)
	}
	m.To = "never-bound"
	if allocs := testing.AllocsPerRun(1000, func() { l.Send(m) }); allocs != 0 {
		t.Fatalf("a send to an unbound name allocated %.2f times, want 0", allocs)
	}
	if got == 0 {
		t.Fatal("nothing was delivered")
	}
}

// TestLocalBindUnbindRacesSend pins Local's table semantics: a re-Bind
// replaces the handler, Unbind drops later sends, a send to a name
// never bound files nothing, and Bind and Send fail after Close. Its
// last row races Bind, Unbind and Send over shared names, for the race
// detector.
func TestLocalBindUnbindRacesSend(t *testing.T) {
	l := NewLocal()
	var first, second mailbox
	if err := l.Bind("prv", first.handle); err != nil {
		t.Fatal(err)
	}
	m := Msg{From: "vrf", To: "prv", Kind: KindVerdict}
	l.Send(m)
	if err := l.Bind("prv", second.handle); err != nil {
		t.Fatal(err)
	}
	l.Send(m)
	if first.len() != 1 || second.len() != 1 {
		t.Fatalf("after a re-Bind: %d to the first handler, %d to the second; want 1 and 1", first.len(), second.len())
	}

	l.Unbind("prv")
	if err := l.Send(m); err != nil {
		t.Fatal(err)
	}
	if first.len() != 1 || second.len() != 1 {
		t.Fatal("a send after Unbind was delivered")
	}
	l.Unbind("never-bound")

	size := l.names.Len()
	for i := 0; i < 100; i++ {
		if err := l.Send(Msg{From: "vrf", To: fmt.Sprintf("stranger-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if l.names.Len() != size {
		t.Fatalf("sends to names never bound grew the table from %d to %d names", size, l.names.Len())
	}

	t.Run("race", func(t *testing.T) {
		r := NewLocal()
		names := fleetNames(64)
		var delivered atomic.Int64
		count := func(Msg) { delivered.Add(1) }
		for _, name := range names {
			r.Bind(name, count)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(2)
			go func(g int) { // churns its own quarter of the names
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					name := names[g+4*(i%16)]
					if i%3 == 0 {
						r.Unbind(name)
					} else if err := r.Bind(name, count); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					if err := r.Send(Msg{From: "vrf", To: names[(g*7+i)%len(names)]}); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if delivered.Load() == 0 {
			t.Fatal("nothing was delivered")
		}
		if int(r.names.Len()) != len(names) {
			t.Fatalf("%d names filed, want %d", r.names.Len(), len(names))
		}
	})

	t.Run("hinted race", func(t *testing.T) {
		// Hinted sends — right hints, stale ones, IDs not given yet —
		// race Binds that grow the table under them.
		r := NewLocal()
		names := fleetNames(64)
		var delivered atomic.Int64
		count := func(Msg) { delivered.Add(1) }
		for _, name := range names {
			r.Bind(name, count)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(2)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 600; i++ {
					if err := r.Bind(fmt.Sprintf("late-%d-%04d", g, i), count); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					to := names[(g*7+i)%len(names)]
					hint := uint32(i % 3000)
					if i%2 == 0 {
						hint = r.NameID(to)
					}
					if err := r.Send(Msg{From: "vrf", To: to, ToID: hint}); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if delivered.Load() != 4*2000 {
			t.Fatalf("%d of %d hinted sends delivered", delivered.Load(), 4*2000)
		}
	})

	l.Bind("prv", first.handle)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Bind("prv", second.handle); err == nil {
		t.Fatal("Bind after Close succeeded")
	}
	if err := l.Send(m); err == nil {
		t.Fatal("Send after Close succeeded")
	}
	if first.len() != 1 || second.len() != 1 {
		t.Fatal("a handler ran after Close")
	}
	for id := uint32(1); id <= l.names.Len(); id++ {
		if l.names.At(id).Val != nil {
			t.Fatalf("Close left name %q's handler filed", l.names.At(id).Key)
		}
	}
}
