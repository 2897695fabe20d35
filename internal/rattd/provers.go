package rattd

import (
	"saferatt/internal/strtab"
	"saferatt/internal/verifier"
)

// proverRec is one prover's durable state — with its name, exactly
// what a checkpoint persists: the core's freshness record (ERASMUS
// replay window, SeED watermark), the image binding, and the dirty
// stamp the delta encoder keys off. One record lives on one stripe, so
// per-prover checkpoint consistency is a single-lock property. 56
// bytes, held by value beside the prover's name in its stripe's
// proverTable: 72 bytes a record.
type proverRec struct {
	fresh verifier.Freshness // Window valid under recWin, SeedLast under recSeed
	image uint32             // bound image: index into proverTable.images, 0 = the fleet default
	state uint32             // recWin | recSeed | the generation last dirtied under
}

const (
	recWin  = 1 << 31   // fresh.Window is held
	recSeed = 1 << 30   // fresh.SeedLast is held
	genMask = 1<<30 - 1 // proverRec.state's dirty generation
)

func (r *proverRec) has(flag uint32) bool { return r.state&flag != 0 }

// proverEntry is a record beside its prover's name.
type proverEntry = strtab.Entry[proverRec]

// proverTable is one stripe's prover records, filed by name under the
// server's seeded hash (stripeHash) with the record's ID beside it. An
// entry never moves, so a bundle takes its record pointer in the
// snapshot visit and reuses it at commit, across the unlocked judge
// step. Every method runs under the stripe lock.
type proverTable struct {
	strtab.Table[proverRec]

	// Checkpoint dirty tracking. gen is the current checkpoint
	// generation (it starts at 1, so a record's zero stamp reads clean);
	// dirty lists the IDs of the records stamped with it, in first-touch
	// order. A delta checkpoint takes the list and opens the next
	// generation (nextGen) in one lock hold — commits racing the swap
	// land wholly in this delta or wholly in the next one, never in
	// neither.
	dirty []uint32
	gen   uint32

	// images holds the image names the table's provers bound, append
	// only, so an index taken under the lock names the same image after
	// it; images[0] is "", the fleet default. A name is added only by a
	// record binding it first and a record binds once, so the table
	// never holds more names than records + 1: a uint32 index cannot
	// overflow before the record ID it shares the range with.
	images  []string
	imageOf map[string]uint32 // images inverted, made by the first named binding
}

// newProverTable returns an empty table.
func newProverTable() *proverTable {
	return &proverTable{gen: 1, images: []string{""}}
}

// markDirty stamps record id (r) into the current checkpoint generation
// and reports whether this was its first touch in it. The common case —
// a prover reporting again between checkpoints — is a compare and
// nothing else; the first touch appends to a list that keeps its
// backing array across swaps, so the steady state allocates nothing.
func (t *proverTable) markDirty(r *proverRec, id uint32) bool {
	if r.state&genMask == t.gen {
		return false
	}
	r.state = r.state&^genMask | t.gen
	t.dirty = append(t.dirty, id)
	return true
}

// nextGen empties the dirty list and opens the next checkpoint
// generation. Generations take 30 bits; rather than wrap onto stamps
// records still carry, the last one restamps every record clean and
// starts over.
func (t *proverTable) nextGen() {
	t.dirty = t.dirty[:0]
	if t.gen == genMask {
		for id := uint32(1); id <= t.Len(); id++ {
			t.At(id).Val.state &^= genMask
		}
		t.gen = 0
	}
	t.gen++
}

// bind binds r to the image named name (never ""): every record bound to
// one image shares its index.
func (t *proverTable) bind(r *proverRec, name string) {
	k, ok := t.imageOf[name]
	if !ok {
		if t.imageOf == nil {
			t.imageOf = map[string]uint32{}
		}
		k = uint32(len(t.images))
		t.images = append(t.images, name)
		t.imageOf[name] = k
	}
	r.image = k
}

// recsByName sorts copied records by prover name: the order that makes
// a checkpoint's bytes independent of the order provers enrolled in.
type recsByName []proverEntry

func (e recsByName) Len() int           { return len(e) }
func (e recsByName) Less(i, j int) bool { return e[i].Key < e[j].Key }
func (e recsByName) Swap(i, j int)      { e[i], e[j] = e[j], e[i] }
