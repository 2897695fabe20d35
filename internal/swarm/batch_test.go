package swarm

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
)

// newGoldenFleet builds n copy-on-write nodes sharing one golden image.
func newGoldenFleet(t testing.TB, n int, linkCfg channel.Config) (*fleet, *mem.Golden) {
	t.Helper()
	k := sim.NewKernel()
	linkCfg.Kernel = k
	link := channel.New(linkCfg)
	f := &fleet{k: k, link: link, index: map[string]*Node{}, refs: map[string][]byte{}}
	g := mem.RandomGolden(2048, 256, 1, rand.New(rand.NewPCG(7, 99)))
	opts := core.Preset(core.NoLock, suite.SHA256)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%02d", i)
		m := mem.NewShared(g, mem.SharedConfig{Clock: k.Now})
		dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
		node, err := NewNode(name, dev, link, opts, 5)
		if err != nil {
			t.Fatal(err)
		}
		f.nodes = append(f.nodes, node)
		f.index[name] = node
		f.refs[name] = g.Bytes()
	}
	return f, g
}

// TestCollectorBatchedMatchesUnbatched pins the batched fast path's
// contract: judging the same aggregate with and without batching gives
// bit-identical SwarmResults — same verdicts, same reasons, same
// missing list — on a fleet with clean, infected and unreachable nodes.
func TestCollectorBatchedMatchesUnbatched(t *testing.T) {
	adv := channel.AdversaryFunc(func(m channel.Message) channel.Verdict {
		if m.To == "node06" {
			return channel.Drop
		}
		return channel.Deliver
	})
	f, _ := newGoldenFleet(t, 9, channel.Config{Latency: sim.Millisecond, Adv: adv})
	batched := NewCollector(suite.SHA256)
	naive := NewCollector(suite.SHA256)
	for _, node := range f.nodes {
		batched.Register(node)
		naive.Register(node)
	}
	// The oracle arm: with no Batch to consult, judgeNode verifies every
	// report on its own against the node's image — the path region- and
	// data-carrying reports still take.
	clear(naive.batches)
	if err := f.nodes[3].Dev.Mem.Poke(5*256+1, 0x99); err != nil {
		t.Fatal(err)
	}
	root, _ := BuildTree(f.nodes, 2)
	for _, n := range f.nodes {
		n.Timeout = sim.Duration(Depth(n, f.index)+1) * sim.Second
	}
	var agg *Aggregate
	root.OnComplete = func(a *Aggregate) { agg = a }
	nonce := []byte("batch-pin")
	root.Attest(nonce)
	f.k.Run()
	if agg == nil {
		t.Fatal("no aggregate")
	}

	now := f.k.Now()
	rb := batched.Judge(agg, nonce, now)
	rn := naive.Judge(agg, nonce, now)
	if !reflect.DeepEqual(rb, rn) {
		t.Fatalf("batched != unbatched\nbatched: %+v\nnaive:   %+v", rb, rn)
	}
	if rb.Healthy() {
		t.Fatal("infected+missing swarm judged healthy")
	}
	if inf := rb.Infected(); len(inf) != 1 || inf[0] != "node03" {
		t.Fatalf("infected = %v, want [node03]", inf)
	}
	if len(rb.Missing) != 1 || rb.Missing[0] != "node06" {
		t.Fatalf("missing = %v, want [node06]", rb.Missing)
	}
	// The batched collector must actually have amortized: 7 delivered
	// nodes share one fleet-wide expected tag per (round) group.
	s := batched.BatchStats()
	if s.Reports == 0 {
		t.Fatal("batched collector never used the batch path")
	}
	if s.Computed >= s.Reports {
		t.Fatalf("no amortization: computed %d of %d reports", s.Computed, s.Reports)
	}
	if s := naive.BatchStats(); s.Reports != 0 {
		t.Fatalf("oracle collector batched %d reports", s.Reports)
	}
}

// TestCollectorGoldenRegistrationSharesImage pins that registering a
// clean copy-on-write node copies no image bytes: the collector's ref
// aliases the golden image, and all such nodes share one batch.
func TestCollectorGoldenRegistrationSharesImage(t *testing.T) {
	f, g := newGoldenFleet(t, 3, channel.Config{})
	c := NewCollector(suite.SHA256)
	for _, node := range f.nodes {
		c.Register(node)
	}
	for _, node := range f.nodes {
		if img := c.images[node.Name]; img.Golden() != g || &img.Bytes()[0] != &g.Bytes()[0] {
			t.Fatalf("node %s ref is a private copy", node.Name)
		}
	}
	if c.batches["node00"] != c.batches["node01"] || c.batches["node01"] != c.batches["node02"] {
		t.Fatal("nodes on one golden did not share a batch verifier")
	}
	// A node that diverged before registration gets a private snapshot.
	if err := f.nodes[1].Dev.Mem.Poke(300, 0x01); err != nil {
		t.Fatal(err)
	}
	c.Register(f.nodes[1])
	if img := c.images["node01"]; img.Golden() != nil || &img.Bytes()[0] == &g.Bytes()[0] {
		t.Fatal("divergent node still aliases the golden image")
	}
	if c.batches["node01"] == c.batches["node00"] {
		t.Fatal("divergent node still shares the fleet batch")
	}
}
