package rattd

import (
	"runtime"
	"strconv"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// smartVictim is an honest SMART prover on a Server's in-process
// transport: it keeps what the server sends it, so a test can hello,
// let an attacker speak under its name, and then answer.
type smartVictim struct {
	t     *testing.T
	s     *Server
	prv   *Prover
	inbox []transport.Msg
}

func newSmartVictim(t *testing.T, s *Server, name string) *smartVictim {
	t.Helper()
	prv, err := NewProver(name, DefaultKey, GoldenImage(7, testMem, testBlock), testBlock)
	if err != nil {
		t.Fatal(err)
	}
	v := &smartVictim{t: t, s: s, prv: prv}
	if err := s.tr.(*transport.Local).Bind(name, func(m transport.Msg) { v.inbox = append(v.inbox, m) }); err != nil {
		t.Fatal(err)
	}
	return v
}

// hello asks for a challenge and returns its nonce.
func (v *smartVictim) hello() []byte {
	v.t.Helper()
	v.s.Ingest(v.prv.Name, transport.KindHello, nil)
	m := v.inbox[len(v.inbox)-1]
	if m.Kind != transport.KindChallenge {
		v.t.Fatalf("hello answered with %v", m.Kind)
	}
	return m.Nonce
}

// answer sends the honest response to nonce and returns the verdict's
// reason ("" for accepted).
func (v *smartVictim) answer(nonce []byte) string {
	v.t.Helper()
	rep, err := v.prv.Respond(nonce)
	if err != nil {
		v.t.Fatal(err)
	}
	v.s.Ingest(v.prv.Name, transport.KindReport, []core.Report{*rep})
	m := v.inbox[len(v.inbox)-1]
	if m.Kind != transport.KindVerdict {
		v.t.Fatalf("report answered with %v", m.Kind)
	}
	return m.Reason
}

// floodHellos sends n hellos, each under a name nobody answers to for
// which aim is true.
func floodHellos(s *Server, n int, aim func(name string) bool) {
	for i := 0; n > 0; i++ {
		name := "flood" + strconv.Itoa(i)
		if aim(name) {
			s.Ingest(name, transport.KindHello, nil)
			n--
		}
	}
}

// From is self-declared, so one spoofed frame, or a burst of them, must
// not deny an honest SMART prover: a server that stored its challenges
// by name would let each of the three below through. Each runs with 8
// stripes, and each holds that the victim's honest answer is still
// accepted.

// TestSpoofedReportLeavesChallenge: a report under the victim's name
// carrying a made-up nonce, of any length, consumes nothing.
func TestSpoofedReportLeavesChallenge(t *testing.T) {
	for _, made := range [][]byte{[]byte("made-up"), make([]byte, 32)} {
		s := localServer(t, Config{Stripes: 8})
		v := newSmartVictim(t, s, "victim")
		nonce := v.hello()
		forged, err := v.prv.Respond(made)
		if err != nil {
			t.Fatal(err)
		}
		s.Ingest(v.prv.Name, transport.KindReport, []core.Report{*forged})
		if why := v.answer(nonce); why != "" {
			t.Errorf("after a spoofed %d-byte nonce the honest answer reads %q", len(made), why)
		}
	}
}

// TestSpoofedReHelloLeavesChallenge: a hello under the victim's name
// between its hello and its report cancels nothing.
func TestSpoofedReHelloLeavesChallenge(t *testing.T) {
	s := localServer(t, Config{Stripes: 8})
	v := newSmartVictim(t, s, "victim")
	nonce := v.hello()
	s.Ingest(v.prv.Name, transport.KindHello, nil)
	if why := v.answer(nonce); why != "" {
		t.Fatalf("after a spoofed re-hello the honest answer reads %q", why)
	}
}

// TestHelloFloodOnStripeLeavesChallenge: W−1 hellos from names aimed at
// the victim's stripe leave its challenge inside the window.
func TestHelloFloodOnStripeLeavesChallenge(t *testing.T) {
	s := localServer(t, Config{Stripes: 8})
	v := newSmartVictim(t, s, "victim")
	nonce := v.hello()
	home := s.stripeFor(v.prv.Name)
	floodHellos(s, verifier.ChallengeBits-1, func(name string) bool { return s.stripeFor(name) == home })
	if why := v.answer(nonce); why != "" {
		t.Fatalf("after %d hellos on its stripe the honest answer reads %q", verifier.ChallengeBits-1, why)
	}
}

// TestChallengeSlidesOutAfterWindow is the bound the window trades for
// its fixed size: W hellos anywhere on the server after the victim's
// slide its challenge out, and the answer reads unsolicited.
func TestChallengeSlidesOutAfterWindow(t *testing.T) {
	s := localServer(t, Config{Stripes: 8})
	v := newSmartVictim(t, s, "victim")
	nonce := v.hello()
	floodHellos(s, verifier.ChallengeBits, func(string) bool { return true })
	if why := v.answer(nonce); why != verifier.ReasonUnsolicited.String() {
		t.Fatalf("after %d newer hellos the answer reads %q, want %q", verifier.ChallengeBits, why, verifier.ReasonUnsolicited)
	}
}

// TestChallengeStateBounded pins what SMART costs the server in settled
// heap: nothing per challenge, outstanding or answered. 60 k hellos
// nobody answers, then 80 k completed exchanges over a 20 k fleet, must
// each leave the heap within the window's 8 KiB plus 16 KiB of slack of
// where it started.
func TestChallengeStateBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is meaningless under the race detector")
	}
	const (
		hellos    = 60_000
		fleet     = 20_000
		exchanges = 80_000
		bound     = verifier.ChallengeBits/8 + 16<<10
	)
	s := localServer(t, Config{Stripes: 8})
	tr := s.tr.(*transport.Local)
	// One prover answers for the whole fleet: the key is fleet-wide, so
	// the response to a nonce does not depend on who sends it.
	prv, err := NewProver("tmpl", DefaultKey, GoldenImage(7, testMem, testBlock), testBlock)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, fleet)
	nonces := make([][verifier.ChallengeNonceLen]byte, fleet)
	accepted := 0
	for i := range names {
		names[i] = "prv" + strconv.Itoa(i)
		slot := &nonces[i]
		if err := tr.Bind(names[i], func(m transport.Msg) {
			switch m.Kind {
			case transport.KindChallenge:
				copy(slot[:], m.Nonce)
			case transport.KindVerdict:
				if m.OK {
					accepted++
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	exchange := func(i int) {
		s.Ingest(names[i], transport.KindHello, nil)
		rep, err := prv.Respond(nonces[i][:])
		if err != nil {
			t.Fatal(err)
		}
		s.Ingest(names[i], transport.KindReport, []core.Report{*rep})
	}
	exchange(0) // pools exist before the baseline is read
	check := func(what string, before uint64) {
		t.Helper()
		grew := int64(settledHeap() - before)
		t.Logf("%s: heap grew %d B", what, grew)
		if grew > bound {
			t.Errorf("%s: heap grew %d B, want <= %d", what, grew, bound)
		}
	}

	before := settledHeap()
	floodHellos(s, hellos, func(string) bool { return true })
	check(strconv.Itoa(hellos)+" unanswered hellos", before)

	before = settledHeap()
	for i := 0; i < exchanges; i++ {
		exchange(i % fleet)
	}
	check(strconv.Itoa(exchanges)+" completed exchanges", before)
	if accepted != exchanges+1 {
		t.Fatalf("%d of %d exchanges accepted", accepted, exchanges+1)
	}
	runtime.KeepAlive(nonces)
}
