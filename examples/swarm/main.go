// Swarm demonstrates collective attestation (§2.1's swarm setting):
// an initiator floods a challenge down a spanning tree of simulated
// devices, reports aggregate bottom-up, and the collector verifies the
// whole swarm — including spotting the one infected node.
//
// Run with: go run ./examples/swarm
package main

import (
	"fmt"
	"math/rand/v2"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/swarm"
)

func main() {
	const n = 15
	fmt.Printf("collective attestation of a %d-node swarm (binary tree, 2ms links)\n\n", n)

	k := sim.NewKernel()
	link := channel.New(channel.Config{Kernel: k, Latency: 2 * sim.Millisecond})
	opts := core.Preset(core.NoLock, suite.SHA256)

	// Every node runs the same firmware: one golden image, shared
	// copy-on-write. A node materializes a private block only when it
	// diverges (here: when malware writes to it), so the whole swarm
	// holds one image plus the victim's dirty block.
	golden := mem.RandomGolden(32<<10, 1024, 1, rand.New(rand.NewPCG(42, 2024)))

	nodes := make([]*swarm.Node, 0, n)
	index := map[string]*swarm.Node{}
	collector := swarm.NewCollector(suite.SHA256)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%02d", i)
		m := mem.NewShared(golden, mem.SharedConfig{Clock: k.Now})
		dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
		node, err := swarm.NewNode(name, dev, link, opts, 5)
		if err != nil {
			panic(err)
		}
		nodes = append(nodes, node)
		index[name] = node
		collector.Register(node)
	}
	root, err := swarm.BuildTree(nodes, 2)
	if err != nil {
		panic(err)
	}

	// One node harbors malware (infected AFTER golden registration).
	victim := nodes[11]
	if err := victim.Dev.Mem.Poke(9*1024+100, 0xBD); err != nil {
		panic(err)
	}
	fmt.Printf("planting malware on %s\n", victim.Name)

	var agg *swarm.Aggregate
	root.OnComplete = func(a *swarm.Aggregate) { agg = a }
	nonce := []byte("swarm-round-1")
	root.Attest(nonce)
	k.Run()

	dirty := 0
	for _, node := range nodes {
		dirty += node.Dev.Mem.DirtyBlocks()
	}
	fmt.Printf("aggregate complete at %v: %d nodes, %d messages, tree depth %d\n",
		k.Now(), len(agg.Reports), link.Stats().Sent, swarm.Depth(root, index))
	fmt.Printf("swarm memory: one %d KiB golden image + %d dirty block(s)\n\n",
		golden.Size()>>10, dirty)

	res := collector.Judge(agg, nonce, k.Now())
	infected := res.Infected()
	for _, name := range infected {
		fmt.Printf("  %s: REJECTED (%s)\n", name, res.Verdicts[name].Reason)
	}
	fmt.Printf("verdict: healthy=%v, %d clean, %d infected, %d missing\n",
		res.Healthy(), len(res.Verdicts)-len(infected), len(infected), len(res.Missing))
}
