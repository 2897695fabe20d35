package swarm

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"testing"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
)

// fleet builds n identical nodes on one kernel and link.
type fleet struct {
	k     *sim.Kernel
	link  *channel.Link
	nodes []*Node
	index map[string]*Node
	refs  map[string][]byte
}

func newFleet(t testing.TB, n int, linkCfg channel.Config) *fleet {
	t.Helper()
	k := sim.NewKernel()
	linkCfg.Kernel = k
	link := channel.New(linkCfg)
	f := &fleet{k: k, link: link, index: map[string]*Node{}, refs: map[string][]byte{}}
	opts := core.Preset(core.NoLock, suite.SHA256)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%02d", i)
		m := mem.New(mem.Config{Size: 2048, BlockSize: 256, ROMBlocks: 1, Clock: k.Now})
		m.FillRandom(rand.New(rand.NewPCG(uint64(i), 99)))
		dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
		node, err := NewNode(name, dev, link, opts, 5)
		if err != nil {
			t.Fatal(err)
		}
		f.nodes = append(f.nodes, node)
		f.index[name] = node
		f.refs[name] = m.Snapshot()
	}
	return f
}

// verifyAggregate recomputes each node's expected tag.
func (f *fleet) verifyAggregate(t testing.TB, agg *Aggregate, nonce []byte) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for name, reports := range agg.Reports {
		node := f.index[name]
		ref := f.refs[name]
		ok := len(reports) > 0
		for _, rep := range reports {
			scheme := suite.Scheme{Hash: suite.SHA256, Key: node.Dev.AttestationKey}
			order := core.DeriveOrder(node.Dev.AttestationKey, rep.Nonce, rep.Round, node.Dev.Mem.NumBlocks(), false)
			good, err := scheme.VerifyStream(func(w io.Writer) error {
				core.ExpectedStreamForReport(w, suite.SHA256, rep, ref, 256, order)
				return nil
			}, rep.Tag)
			if err != nil {
				t.Fatal(err)
			}
			ok = ok && good && bytes.Equal(rep.Nonce, nonce)
		}
		out[name] = ok
	}
	return out
}

func TestSingleNodeSwarm(t *testing.T) {
	f := newFleet(t, 1, channel.Config{})
	root, err := BuildTree(f.nodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got *Aggregate
	root.OnComplete = func(a *Aggregate) { got = a }
	root.Attest([]byte("nonce"))
	f.k.Run()
	if got == nil || len(got.Reports) != 1 {
		t.Fatalf("aggregate %+v", got)
	}
}

func TestFullSwarmAllClean(t *testing.T) {
	f := newFleet(t, 15, channel.Config{Latency: sim.Millisecond})
	root, _ := BuildTree(f.nodes, 2)
	var got *Aggregate
	root.OnComplete = func(a *Aggregate) { got = a }
	nonce := []byte("round-1")
	root.Attest(nonce)
	f.k.Run()

	if got == nil {
		t.Fatal("no aggregate")
	}
	if len(got.Reports) != 15 {
		t.Fatalf("aggregate covers %d nodes, want 15", len(got.Reports))
	}
	verdicts := f.verifyAggregate(t, got, nonce)
	for name, ok := range verdicts {
		if !ok {
			t.Errorf("clean node %s rejected", name)
		}
	}
	// Depth-4 binary tree over 15 nodes.
	if d := Depth(root, f.index); d != 3 {
		t.Fatalf("tree depth %d, want 3", d)
	}
	if got.Hops < 3 {
		t.Fatalf("aggregate hops %d, want >= 3", got.Hops)
	}
}

func TestSwarmDetectsInfectedNode(t *testing.T) {
	f := newFleet(t, 7, channel.Config{Latency: sim.Millisecond})
	root, _ := BuildTree(f.nodes, 2)
	// Corrupt one leaf.
	bad := f.nodes[5]
	if err := bad.Dev.Mem.Poke(3*256+7, 0x66); err != nil {
		t.Fatal(err)
	}
	var got *Aggregate
	root.OnComplete = func(a *Aggregate) { got = a }
	nonce := []byte("round-2")
	root.Attest(nonce)
	f.k.Run()

	verdicts := f.verifyAggregate(t, got, nonce)
	if verdicts["node05"] {
		t.Fatal("infected node accepted")
	}
	clean := 0
	for name, ok := range verdicts {
		if ok && name != "node05" {
			clean++
		}
	}
	if clean != 6 {
		t.Fatalf("%d clean nodes verified, want 6", clean)
	}
}

func TestSwarmTimeoutToleratesLostChild(t *testing.T) {
	// Drop all traffic to node03: its parent must time out and still
	// deliver the rest.
	adv := channel.AdversaryFunc(func(m channel.Message) channel.Verdict {
		if m.To == "node03" {
			return channel.Drop
		}
		return channel.Deliver
	})
	f := newFleet(t, 7, channel.Config{Latency: sim.Millisecond, Adv: adv})
	root, _ := BuildTree(f.nodes, 2)
	// Timeouts must grow with subtree depth: a parent has to outwait
	// its children's timeouts, or it gives up at the same instant they
	// forward their partial aggregates.
	for _, n := range f.nodes {
		n.Timeout = sim.Duration(Depth(n, f.index)+1) * 2 * sim.Second
	}
	var got *Aggregate
	root.OnComplete = func(a *Aggregate) { got = a }
	root.Attest([]byte("round-3"))
	f.k.Run()

	if got == nil {
		t.Fatal("aggregate never completed despite timeout")
	}
	if _, present := got.Reports["node03"]; present {
		t.Fatal("unreachable node reported")
	}
	if len(got.Reports) != 6 {
		t.Fatalf("aggregate covers %d nodes, want 6", len(got.Reports))
	}
}

func TestSwarmScalesMessagesLinearly(t *testing.T) {
	counts := map[int]int{}
	for _, n := range []int{4, 8, 16} {
		f := newFleet(t, n, channel.Config{})
		root, _ := BuildTree(f.nodes, 2)
		done := false
		root.OnComplete = func(*Aggregate) { done = true }
		root.Attest([]byte("x"))
		f.k.Run()
		if !done {
			t.Fatalf("n=%d: no aggregate", n)
		}
		counts[n] = f.link.Stats().Sent
	}
	// Request + aggregate per non-root node: 2(n-1) messages.
	for _, n := range []int{4, 8, 16} {
		want := 2 * (n - 1)
		if counts[n] != want {
			t.Errorf("n=%d: %d messages, want %d", n, counts[n], want)
		}
	}
}

func TestBuildTreeValidation(t *testing.T) {
	if _, err := BuildTree(nil, 2); err == nil {
		t.Error("empty swarm accepted")
	}
	f := newFleet(t, 3, channel.Config{})
	if _, err := BuildTree(f.nodes, 0); err == nil {
		t.Error("zero branching accepted")
	}
	root, err := BuildTree(f.nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Branching 1: a chain.
	if d := Depth(root, f.index); d != 2 {
		t.Fatalf("chain depth %d, want 2", d)
	}
}

func TestNodeRejectsInvalidOptions(t *testing.T) {
	f := newFleet(t, 1, channel.Config{})
	_, err := NewNode("bad", f.nodes[0].Dev, f.link, core.Options{}, 5)
	if err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestConcurrentRoundIgnored(t *testing.T) {
	f := newFleet(t, 3, channel.Config{})
	root, _ := BuildTree(f.nodes, 2)
	completions := 0
	root.OnComplete = func(*Aggregate) { completions++ }
	root.Attest([]byte("a"))
	root.Attest([]byte("b")) // ignored: round in flight
	f.k.Run()
	if completions != 1 {
		t.Fatalf("completions = %d, want 1", completions)
	}
}
