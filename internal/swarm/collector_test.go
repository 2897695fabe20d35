package swarm

import (
	"testing"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/verifier"
)

// newJudgedFleet builds a fleet with a Collector registered BEFORE any
// infection (so golden images are clean).
func newJudgedFleet(t *testing.T, n int, cfg channel.Config) (*fleet, *Collector) {
	t.Helper()
	f := newFleet(t, n, cfg)
	c := NewCollector(suite.SHA256)
	for _, node := range f.nodes {
		c.Register(node)
	}
	return f, c
}

func TestCollectorHealthySwarm(t *testing.T) {
	f, c := newJudgedFleet(t, 7, channel.Config{Latency: sim.Millisecond})
	root, _ := BuildTree(f.nodes, 2)
	var agg *Aggregate
	root.OnComplete = func(a *Aggregate) { agg = a }
	nonce := []byte("judge-1")
	root.Attest(nonce)
	f.k.Run()

	res := c.Judge(agg, nonce, f.k.Now())
	if !res.Healthy() {
		t.Fatalf("healthy swarm judged unhealthy: %+v", res)
	}
	if len(res.Verdicts) != 7 || len(res.Missing) != 0 {
		t.Fatalf("result: %+v", res)
	}
	if len(res.Infected()) != 0 {
		t.Fatal("infected list non-empty")
	}
}

func TestCollectorPinpointsInfection(t *testing.T) {
	f, c := newJudgedFleet(t, 7, channel.Config{})
	root, _ := BuildTree(f.nodes, 2)
	for _, i := range []int{4, 1} {
		if err := f.nodes[i].Dev.Mem.Poke(5*256+1, 0x99); err != nil {
			t.Fatal(err)
		}
	}
	var agg *Aggregate
	root.OnComplete = func(a *Aggregate) { agg = a }
	nonce := []byte("judge-2")
	root.Attest(nonce)
	f.k.Run()

	// Judged twenty times: Verdicts is a map, and Infected must not
	// hand its iteration order to rattsim's output.
	for run := 0; run < 20; run++ {
		res := c.Judge(agg, nonce, f.k.Now())
		if res.Healthy() {
			t.Fatal("infected swarm judged healthy")
		}
		infected := res.Infected()
		if len(infected) != 2 || infected[0] != "node01" || infected[1] != "node04" {
			t.Fatalf("run %d: infected = %v, want [node01 node04]", run, infected)
		}
		if res.Verdicts["node04"].Reason != verifier.ReasonTagMismatch.String() {
			t.Fatalf("reason: %q", res.Verdicts["node04"].Reason)
		}
	}
}

func TestCollectorFlagsMissingNodes(t *testing.T) {
	adv := channel.AdversaryFunc(func(m channel.Message) channel.Verdict {
		if m.To == "node05" {
			return channel.Drop
		}
		return channel.Deliver
	})
	f, c := newJudgedFleet(t, 7, channel.Config{Latency: sim.Millisecond, Adv: adv})
	root, _ := BuildTree(f.nodes, 2)
	for _, n := range f.nodes {
		n.Timeout = sim.Duration(Depth(n, f.index)+1) * sim.Second
	}
	var agg *Aggregate
	root.OnComplete = func(a *Aggregate) { agg = a }
	nonce := []byte("judge-3")
	root.Attest(nonce)
	f.k.Run()

	res := c.Judge(agg, nonce, f.k.Now())
	if res.Healthy() {
		t.Fatal("swarm with unreachable node judged healthy")
	}
	if len(res.Missing) != 1 || res.Missing[0] != "node05" {
		t.Fatalf("missing = %v", res.Missing)
	}
}

func TestCollectorRejectsWrongNonce(t *testing.T) {
	f, c := newJudgedFleet(t, 3, channel.Config{})
	root, _ := BuildTree(f.nodes, 2)
	var agg *Aggregate
	root.OnComplete = func(a *Aggregate) { agg = a }
	root.Attest([]byte("actual"))
	f.k.Run()

	res := c.Judge(agg, []byte("expected"), f.k.Now())
	if res.Healthy() {
		t.Fatal("wrong-nonce aggregate judged healthy")
	}
	for _, v := range res.Verdicts {
		if v.OK || v.Reason != verifier.ReasonNonceMismatch.String() {
			t.Fatalf("verdict: %+v", v)
		}
	}
}

func TestMergeDetectsDuplicateNodeNames(t *testing.T) {
	repA := &core.Report{Round: 1}
	repB := &core.Report{Round: 2}
	a := &Aggregate{Reports: map[string][]*core.Report{"n0": {repA}}}
	b := &Aggregate{Reports: map[string][]*core.Report{"n0": {repB}, "n1": {repB}}}
	a.merge(b)
	if len(a.Duplicates) != 1 || a.Duplicates[0] != "n0" {
		t.Fatalf("Duplicates = %v, want [n0]", a.Duplicates)
	}
	if got := a.Reports["n0"][0]; got != repA {
		t.Fatal("merge replaced the first copy instead of keeping it")
	}
	if _, ok := a.Reports["n1"]; !ok {
		t.Fatal("non-clashing node lost in merge")
	}
	// Duplicates recorded lower in the tree propagate upward.
	c := &Aggregate{Reports: map[string][]*core.Report{}}
	c.merge(a)
	if len(c.Duplicates) != 1 || c.Duplicates[0] != "n0" {
		t.Fatalf("propagated Duplicates = %v, want [n0]", c.Duplicates)
	}
}

func TestCollectorRejectsDuplicatedNode(t *testing.T) {
	f, c := newJudgedFleet(t, 3, channel.Config{})
	root, _ := BuildTree(f.nodes, 2)
	var agg *Aggregate
	root.OnComplete = func(a *Aggregate) { agg = a }
	nonce := []byte("judge-dup")
	root.Attest(nonce)
	f.k.Run()

	// A second branch claims node01's name: even though the shadowed
	// reports are genuine, attribution is ambiguous and the node must
	// not be accepted.
	agg.merge(&Aggregate{Reports: map[string][]*core.Report{
		"node01": agg.Reports["node01"],
	}})
	res := c.Judge(agg, nonce, f.k.Now())
	if res.Healthy() {
		t.Fatal("aggregate with duplicated node judged healthy")
	}
	v := res.Verdicts["node01"]
	if v.OK || v.Reason != "duplicate reports in aggregate" {
		t.Fatalf("verdict: %+v", v)
	}
	if !res.Verdicts["node00"].OK || !res.Verdicts["node02"].OK {
		t.Fatal("unrelated nodes rejected")
	}
}

func TestCollectorEmptyAggregate(t *testing.T) {
	_, c := newJudgedFleet(t, 2, channel.Config{})
	res := c.Judge(&Aggregate{Reports: map[string][]*core.Report{}}, nil, 0)
	if res.Healthy() {
		t.Fatal("empty aggregate judged healthy")
	}
	if len(res.Missing) != 2 {
		t.Fatalf("missing = %v", res.Missing)
	}
	// A node present but with zero reports is rejected too.
	res = c.Judge(&Aggregate{Reports: map[string][]*core.Report{
		"node00": {}, "node01": nil,
	}}, nil, 0)
	for _, v := range res.Verdicts {
		if v.OK || v.Reason != verifier.ReasonEmptyBundle.String() {
			t.Fatalf("verdict: %+v", v)
		}
	}
}
