package channel

import (
	"testing"

	"saferatt/internal/sim"
)

func TestDeliveryWithLatency(t *testing.T) {
	k := sim.NewKernel()
	l := New(Config{Kernel: k, Latency: 10 * sim.Millisecond})
	var got Message
	var at sim.Time
	l.Connect("vrf", func(m Message) { got = m; at = k.Now() })
	l.Send("prv", "vrf", "report", 42)
	k.Run()
	if got.Payload != 42 || got.From != "prv" || got.Kind != "report" {
		t.Fatalf("got %+v", got)
	}
	if at != sim.Time(10*sim.Millisecond) {
		t.Fatalf("delivered at %v, want 10ms", at)
	}
	s := l.Stats()
	if s.Sent != 1 || s.Delivered != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestJitterBounded(t *testing.T) {
	k := sim.NewKernel()
	l := New(Config{Kernel: k, Latency: 10 * sim.Millisecond, Jitter: 5 * sim.Millisecond, Seed: 7})
	var times []sim.Time
	l.Connect("vrf", func(m Message) { times = append(times, k.Now()) })
	for i := 0; i < 100; i++ {
		l.Send("prv", "vrf", "report", i)
	}
	k.Run()
	if len(times) != 100 {
		t.Fatalf("delivered %d, want 100", len(times))
	}
	for _, at := range times {
		if at < sim.Time(10*sim.Millisecond) || at >= sim.Time(15*sim.Millisecond) {
			t.Fatalf("delivery at %v outside [10ms,15ms)", at)
		}
	}
}

func TestLossRate(t *testing.T) {
	k := sim.NewKernel()
	l := New(Config{Kernel: k, Loss: 0.3, Seed: 11})
	delivered := 0
	l.Connect("vrf", func(Message) { delivered++ })
	const n = 10_000
	for i := 0; i < n; i++ {
		l.Send("prv", "vrf", "r", i)
	}
	k.Run()
	rate := 1 - float64(delivered)/n
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("observed loss %.3f, want ~0.3", rate)
	}
	s := l.Stats()
	if s.LostRandom != n-delivered {
		t.Fatalf("stats: %+v, delivered=%d", s, delivered)
	}
}

func TestAdversaryDropsSelectively(t *testing.T) {
	k := sim.NewKernel()
	adv := AdversaryFunc(func(m Message) Verdict {
		if m.Kind == "report" {
			return Drop
		}
		return Deliver
	})
	l := New(Config{Kernel: k, Adv: adv})
	var kinds []string
	l.Connect("vrf", func(m Message) { kinds = append(kinds, m.Kind) })
	l.Connect("prv", func(m Message) { kinds = append(kinds, m.Kind) })
	l.Send("vrf", "prv", "challenge", nil)
	l.Send("prv", "vrf", "report", nil)
	k.Run()
	if len(kinds) != 1 || kinds[0] != "challenge" {
		t.Fatalf("delivered kinds %v, want [challenge]", kinds)
	}
	if l.Stats().LostAdv != 1 {
		t.Fatalf("stats %+v", l.Stats())
	}
}

func TestNoRouteCounted(t *testing.T) {
	k := sim.NewKernel()
	l := New(Config{Kernel: k})
	l.Send("a", "nobody", "x", nil)
	k.Run()
	if l.Stats().NoRoute != 1 {
		t.Fatalf("stats %+v", l.Stats())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []int {
		k := sim.NewKernel()
		l := New(Config{Kernel: k, Loss: 0.5, Seed: 99})
		var got []int
		l.Connect("v", func(m Message) { got = append(got, m.Payload.(int)) })
		for i := 0; i < 50; i++ {
			l.Send("p", "v", "r", i)
		}
		k.Run()
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic delivery count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic delivery content")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Kernel: sim.NewKernel(), Loss: -0.1},
		{Kernel: sim.NewKernel(), Loss: 1.5},
		{Kernel: sim.NewKernel(), Latency: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("Connect(nil) did not panic")
		}
	}()
	New(Config{Kernel: sim.NewKernel()}).Connect("x", nil)
}

func TestDisconnect(t *testing.T) {
	k := sim.NewKernel()
	l := New(Config{Kernel: k, Latency: sim.Millisecond})
	n := 0
	l.Connect("vrf", func(Message) { n++ })
	l.Send("prv", "vrf", "report", nil)
	k.Run()
	// A message in flight when the endpoint disconnects counts as
	// NoRoute, same as a never-registered name.
	l.Send("prv", "vrf", "report", nil)
	l.Disconnect("vrf")
	k.Run()
	l.Send("prv", "vrf", "report", nil)
	k.Run()
	s := l.Stats()
	if n != 1 || s.Delivered != 1 || s.NoRoute != 2 {
		t.Fatalf("n=%d stats %+v", n, s)
	}
	// Reconnecting restores delivery.
	l.Connect("vrf", func(Message) { n++ })
	l.Send("prv", "vrf", "report", nil)
	k.Run()
	if n != 2 {
		t.Fatalf("delivery after reconnect: n=%d", n)
	}
}
