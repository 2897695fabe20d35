package rattd

import (
	"saferatt/internal/strtab"
	"saferatt/internal/verifier"
)

// proverRec is one prover's durable state — with its name, exactly
// what a checkpoint persists: the core's freshness record (ERASMUS
// replay window, SeED watermark), the image binding, and the dirty bit
// the delta encoder keys off. One record lives on one stripe, so
// per-prover checkpoint consistency is a single-lock property. 56
// bytes, held by value beside the prover's name in its stripe's
// proverTable: 72 bytes a record.
type proverRec struct {
	fresh verifier.Freshness // Window valid under recWin, SeedLast under recSeed
	image uint32             // bound image: index into proverTable.images, 0 = the fleet default
	state uint32             // recWin | recSeed | recDirty
}

const (
	recWin   = 1 << 31 // fresh.Window is held
	recSeed  = 1 << 30 // fresh.SeedLast is held
	recDirty = 1 << 29 // changed since the last checkpoint: listed in proverTable.dirty
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

	// dirty lists, in first-touch order, the IDs of the records whose
	// recDirty bit is set: the provers a delta checkpoint must write. A
	// checkpoint copies those records, clears their bits and empties
	// the list in one lock hold (WriteCheckpoint) — commits racing it land
	// wholly in this delta or wholly in the next one, never in neither.
	dirty []uint32

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
	return &proverTable{images: []string{""}}
}

// markDirty marks record id (r) for the next checkpoint. The common
// case — a prover reporting again between checkpoints — is a bit test
// and nothing else; the first touch appends to a list that keeps its
// backing array across checkpoints, so the steady state allocates
// nothing.
func (t *proverTable) markDirty(r *proverRec, id uint32) {
	if r.has(recDirty) {
		return
	}
	r.state |= recDirty
	t.dirty = append(t.dirty, id)
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
