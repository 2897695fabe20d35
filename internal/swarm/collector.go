package swarm

import (
	"sort"

	"saferatt/internal/core"
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/verifier"
)

// NodeVerdict is the collector's decision about one swarm member.
type NodeVerdict struct {
	Node string
	OK   bool
	// Reason explains a rejection: a verifier.Reason's text, or the
	// collector's own "duplicate reports in aggregate".
	Reason string
}

// SwarmResult summarizes one collective attestation round.
type SwarmResult struct {
	At       sim.Time
	Verdicts map[string]NodeVerdict
	// Missing lists registered nodes absent from the aggregate
	// (unreachable or suppressed).
	Missing []string
}

// Healthy reports whether every registered node was present and clean.
func (r *SwarmResult) Healthy() bool {
	if len(r.Missing) > 0 {
		return false
	}
	for _, v := range r.Verdicts {
		if !v.OK {
			return false
		}
	}
	return true
}

// Infected returns the names of nodes whose reports failed
// verification, sorted like Missing.
func (r *SwarmResult) Infected() []string {
	var out []string
	for name, v := range r.Verdicts {
		if !v.OK {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Collector is the verifier side of collective attestation: it holds
// each node's golden image and shared key and judges aggregates.
type Collector struct {
	hash suite.HashID
	keys map[string][]byte
	// images holds each node's golden image: a handle on the shared
	// golden for clean copy-on-write devices, a collector-private
	// snapshot (reused on re-registration) otherwise.
	images  map[string]verifier.Image
	shuffle bool
	// batches maps node name -> batch verifier: reports sharing a (key,
	// nonce, round, order, path) group are checked against one
	// precomputed expected tag (verifier.Batch). Nodes on the same
	// shared golden image are interned onto one Batch (byGolden), so a
	// fleet's expected tag is computed once per round, not per node.
	batches  map[string]*verifier.Batch
	byGolden map[*mem.Golden]*verifier.Batch
}

// NewCollector builds an empty collector for the given measurement
// hash.
func NewCollector(hash suite.HashID) *Collector {
	return &Collector{
		hash:     hash,
		keys:     map[string][]byte{},
		images:   map[string]verifier.Image{},
		batches:  map[string]*verifier.Batch{},
		byGolden: map[*mem.Golden]*verifier.Batch{},
	}
}

// Register records a node's shared key and golden image. Call once per
// swarm member before judging aggregates.
func (c *Collector) Register(n *Node) { c.RegisterDevice(n.Name, n.Dev, n.Opts) }

// RegisterDevice is Register for devices driven outside the tree
// protocol (the sharded engine). A device whose memory is a clean
// copy-on-write view of a shared golden (mem.NewShared) costs no image
// copy: the collector references the golden bytes directly and shares
// one batch verifier across all such devices.
func (c *Collector) RegisterDevice(name string, dev *device.Device, opts core.Options) {
	m := dev.Mem
	c.keys[name] = dev.AttestationKey
	c.shuffle = opts.Shuffled
	if g := m.SharedGolden(); g != nil && m.DirtyBlocks() == 0 {
		b := c.byGolden[g]
		if b == nil {
			b = verifier.NewBatch(c.hash, verifier.ImageOfGolden(g))
			c.byGolden[g] = b
		}
		c.images[name] = verifier.ImageOfGolden(g)
		c.batches[name] = b
		return
	}
	// Divergent or flat image: private snapshot, reusing the previous
	// registration's buffer when re-registering (never a buffer that
	// aliases a shared golden).
	var dst []byte
	if prev := c.images[name]; prev.Golden() == nil {
		dst = prev.Bytes()[:0]
	}
	img := verifier.ImageOf(m.SnapshotInto(dst), m.BlockSize())
	c.images[name] = img
	c.batches[name] = verifier.NewBatch(c.hash, img)
}

// Judge validates an aggregate received at time now against all
// registered nodes. Nodes whose reports appeared in more than one
// merged bundle are rejected outright: with two branches claiming the
// same name, neither copy can be attributed to the real device.
func (c *Collector) Judge(agg *Aggregate, nonce []byte, now sim.Time) *SwarmResult {
	res := &SwarmResult{At: now, Verdicts: map[string]NodeVerdict{}}
	dup := map[string]bool{}
	for _, name := range agg.Duplicates {
		dup[name] = true
	}
	for name := range c.images {
		reports, present := agg.Reports[name]
		if !present {
			res.Missing = append(res.Missing, name)
			continue
		}
		if dup[name] {
			res.Verdicts[name] = NodeVerdict{Node: name, Reason: "duplicate reports in aggregate"}
			continue
		}
		res.Verdicts[name] = c.judgeNode(name, reports, nonce)
	}
	// Map iteration above is order-randomized; a deterministic Missing
	// list keeps collector output bit-identical across runs and shard
	// counts.
	sort.Strings(res.Missing)
	return res
}

// BatchStats sums amortization counters across the collector's batch
// verifiers (interned batches are counted once).
func (c *Collector) BatchStats() verifier.BatchStats {
	seen := map[*verifier.Batch]bool{}
	var out verifier.BatchStats
	for _, b := range c.batches {
		if seen[b] {
			continue
		}
		seen[b] = true
		s := b.Stats()
		out.Reports += s.Reports
		out.Computed += s.Computed
	}
	return out
}

// judgeNode runs the verification core's on-demand rules (§2.2) over
// one node's reports. A nil nonce means "do not check nonces" — not the
// unsolicited bundle Challenge.Open takes a nil challenge for.
func (c *Collector) judgeNode(name string, reports []*core.Report, nonce []byte) NodeVerdict {
	reason, err := c.check(name, reports, verifier.Challenge(nonce))
	return NodeVerdict{Node: name, OK: reason == verifier.ReasonOK, Reason: reason.Text(err)}
}

func (c *Collector) check(name string, reports []*core.Report, ch verifier.Challenge) (verifier.Reason, error) {
	switch {
	case ch != nil:
		if reason := ch.Open(len(reports)); reason != verifier.ReasonOK {
			return reason, nil
		}
	case len(reports) == 0:
		return verifier.ReasonEmptyBundle, nil
	}
	key := c.keys[name]
	scheme := suite.Scheme{Hash: c.hash, Key: key}
	for _, rep := range reports {
		if ch != nil {
			if reason := ch.Check(rep); reason != verifier.ReasonOK {
				return reason, nil
			}
		}
		// Batched fast path: amortize the expected tag across all
		// reports in this round's (key, round, order) group. Region- or
		// data-carrying reports vary per device and take the per-report
		// path.
		var ok bool
		var err error
		if b := c.batches[name]; b != nil && rep.RegionCount == 0 && rep.Data == nil {
			ok, err = b.Verify(key, rep, c.shuffle)
		} else {
			ok, err = c.images[name].VerifyTag(scheme, key, core.Options{Shuffled: c.shuffle}, rep)
		}
		if reason := verifier.TagReason(ok, err); reason != verifier.ReasonOK {
			return reason, err
		}
	}
	return verifier.ReasonOK, nil
}
