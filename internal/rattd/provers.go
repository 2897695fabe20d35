package rattd

import "saferatt/internal/verifier"

// proverRec is one prover's durable state — exactly what a checkpoint
// persists: the core's freshness record (ERASMUS replay window, SeED
// watermark), the image binding, and the dirty stamp the delta encoder
// keys off. One record lives on one stripe, so per-prover checkpoint
// consistency is a single-lock property. 72 bytes, held by value in
// its stripe's proverTable.
type proverRec struct {
	name  string
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

// Records are appended into chunks of chunkLen records (18 KiB) that
// are never reallocated, so a record's address is stable for its
// table's life: a bundle takes its record pointer in the snapshot visit
// and reuses it at commit, across the unlocked judge step.
const (
	chunkBits = 8
	chunkLen  = 1 << chunkBits
)

// proverTable is one stripe's prover records. Every method runs under
// the stripe lock.
//
// A record is found through index, an open-addressing table of 8-byte
// words: the high half of a word is the high 32 bits of the prover's
// hash (the server's seeded one, from stripeHash), the low half its
// record index + 1, and 0 is an empty slot. A probe starts at the slot
// the hash's high bits name, steps linearly, and compares the hash half
// before the name; a name is found only by comparing the name itself.
// Past ¾ load the index doubles by moving the words, so growing it
// hashes no name again.
type proverTable struct {
	chunks []*[chunkLen]proverRec // record i is chunks[i>>chunkBits][i&(chunkLen-1)]
	n      uint32                 // records held
	index  []uint64

	// Checkpoint dirty tracking. gen is the current checkpoint
	// generation (it starts at 1, so a record's zero stamp reads clean);
	// dirty lists the records stamped with it, in first-touch order.
	// A delta checkpoint takes the list and opens the next generation
	// (nextGen) in one lock hold — commits racing the swap land wholly in
	// this delta or wholly in the next one, never in neither.
	dirty []uint32
	gen   uint32

	// images holds the image names the table's provers bound, append
	// only, so an index taken under the lock names the same image after
	// it; images[0] is "", the fleet default. A name is added only by a
	// record binding it first and a record binds once, so the table
	// never holds more names than records + 1: a uint32 index cannot
	// overflow before the record index it shares the range with.
	images  []string
	imageOf map[string]uint32 // images inverted, made by the first named binding
}

// newProverTable returns an empty table. Its index starts at 16 words,
// so a probe never meets an index with no slots.
func newProverTable() *proverTable {
	return &proverTable{gen: 1, images: []string{""}, index: make([]uint64, 16)}
}

// at returns record i.
func (t *proverTable) at(i uint32) *proverRec {
	return &t.chunks[i>>chunkBits][i&(chunkLen-1)]
}

// find returns the record named name, filed under its hash h, and its
// index; nil if the table holds none.
func (t *proverTable) find(name string, h uint64) (*proverRec, uint32) {
	hi, mask := h>>32, uint64(len(t.index)-1)
	for s := hi & mask; ; s = (s + 1) & mask {
		w := t.index[s]
		if w == 0 {
			return nil, 0
		}
		if w>>32 == hi {
			if r := t.at(uint32(w) - 1); r.name == name {
				return r, uint32(w) - 1
			}
		}
	}
}

// add appends a zero record for name, which the table must not hold,
// and files it under its hash h.
func (t *proverTable) add(name string, h uint64) (*proverRec, uint32) {
	i := t.n
	if i&(chunkLen-1) == 0 {
		t.chunks = append(t.chunks, new([chunkLen]proverRec))
	}
	r := t.at(i)
	r.name = name
	t.n++
	if 4*uint64(t.n) > 3*uint64(len(t.index)) {
		t.grow()
	}
	t.place(h>>32<<32 | uint64(i) + 1)
	return r, i
}

// grow doubles the index, moving every word to its slot in the new one.
func (t *proverTable) grow() {
	old := t.index
	t.index = make([]uint64, 2*len(old))
	for _, w := range old {
		if w != 0 {
			t.place(w)
		}
	}
}

// place puts index word w in the first free slot from its home.
func (t *proverTable) place(w uint64) {
	mask := uint64(len(t.index) - 1)
	s := w >> 32 & mask
	for t.index[s] != 0 {
		s = (s + 1) & mask
	}
	t.index[s] = w
}

// markDirty stamps record i (r) into the current checkpoint generation
// and reports whether this was its first touch in it. The common case —
// a prover reporting again between checkpoints — is a compare and
// nothing else; the first touch appends to a list that keeps its
// backing array across swaps, so the steady state allocates nothing.
func (t *proverTable) markDirty(r *proverRec, i uint32) bool {
	if r.state&genMask == t.gen {
		return false
	}
	r.state = r.state&^genMask | t.gen
	t.dirty = append(t.dirty, i)
	return true
}

// nextGen empties the dirty list and opens the next checkpoint
// generation. Generations take 30 bits; rather than wrap onto stamps
// records still carry, the last one restamps every record clean and
// starts over.
func (t *proverTable) nextGen() {
	t.dirty = t.dirty[:0]
	if t.gen == genMask {
		for i := range t.n {
			t.at(i).state &^= genMask
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
type recsByName []proverRec

func (e recsByName) Len() int           { return len(e) }
func (e recsByName) Less(i, j int) bool { return e[i].name < e[j].name }
func (e recsByName) Swap(i, j int)      { e[i], e[j] = e[j], e[i] }
