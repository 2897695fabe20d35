package sim

import "math/bits"

// wheelQueue is a hierarchical timing wheel (Varghese & Lauck) over
// 64-bit virtual-time ticks at 1 ns granularity: 11 levels of 64 slots,
// level l spanning 64^(l+1) ns. An event lands at the level of the
// highest bit in which its expiry differs from the wheel's current
// tick; as the clock advances across a slot boundary the slot's events
// cascade down one or more levels until they reach level 0, where every
// event in a slot shares the exact same expiry tick.
//
// Costs: push and remove are O(1) (intrusive doubly-linked slot lists,
// per-level occupancy bitmaps); pop is O(1) amortized — each event
// cascades at most 10 times over its whole lifetime, and finding the
// next occupied slot is a few bitmap scans. The heap's O(log n)
// comparison-and-swap churn disappears, which is the whole point for
// kernels multiplexing thousands of pending timers.
//
// Determinism: within a level-0 slot all events carry the same expiry,
// and both direct pushes and cascades append in a
// sequence-number-preserving order (pushes carry globally increasing
// seq; cascades replay a bucket front-to-back and always complete
// before any event at the new instant fires), so pop order at equal
// times is exactly FIFO-by-seq — bit-identical to the heap.
//
// Levels above the first few are only touched by very long timers
// (level 3 starts at ~17 s spans), so slot arrays allocate lazily:
// a short-horizon kernel pays for one or two levels, not eleven.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = (64 + wheelBits - 1) / wheelBits // 11 levels cover all 64 bits
)

type wheelSlot struct {
	head, tail *Event
}

type wheelLevel struct {
	occupied uint64 // bit s set iff slots[s] is non-empty
	slots    *[wheelSlots]wheelSlot
}

type wheelQueue struct {
	cur   uint64 // current tick; only advances inside pop
	count int
	level [wheelLevels]wheelLevel
	// peekAt caches the minimum pending expiry. peekOK means it is
	// exact; pushes keep it exact cheaply (min update), pops and
	// removals of the minimum invalidate it.
	peekAt Time
	peekOK bool
}

// place computes the (level, slot) an expiry belongs to relative to the
// current tick.
func (w *wheelQueue) place(at uint64) (int, int) {
	diff := at ^ w.cur
	if diff == 0 {
		return 0, int(at & wheelMask)
	}
	lvl := (63 - bits.LeadingZeros64(diff)) / wheelBits
	return lvl, int((at >> (uint(lvl) * wheelBits)) & wheelMask)
}

// link appends e to a slot's list, maintaining the occupancy bitmap and
// the event's position marker.
func (w *wheelQueue) link(e *Event, lvl, slot int) {
	l := &w.level[lvl]
	if l.slots == nil {
		l.slots = new([wheelSlots]wheelSlot)
	}
	s := &l.slots[slot]
	e.prev = s.tail
	e.next = nil
	if s.tail != nil {
		s.tail.next = e
	} else {
		s.head = e
		l.occupied |= 1 << uint(slot)
	}
	s.tail = e
	e.index = lvl*wheelSlots + slot
}

// unlink removes e from its slot list and clears every queue-held
// reference (links, position, occupancy) so the event retains nothing.
func (w *wheelQueue) unlink(e *Event) {
	lvl, slot := e.index/wheelSlots, e.index&wheelMask
	s := &w.level[lvl].slots[slot]
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	if s.head == nil {
		w.level[lvl].occupied &^= 1 << uint(slot)
	}
	e.next, e.prev = nil, nil
	e.index = -1
}

func (w *wheelQueue) push(e *Event) {
	lvl, slot := w.place(uint64(e.at))
	w.link(e, lvl, slot)
	w.count++
	if w.count == 1 || (w.peekOK && e.at < w.peekAt) {
		w.peekAt, w.peekOK = e.at, true
	}
}

func (w *wheelQueue) remove(e *Event) {
	w.unlink(e)
	w.count--
	if w.peekOK && e.at == w.peekAt {
		w.peekOK = false
	}
}

func (w *wheelQueue) pop() *Event {
	if w.count == 0 {
		return nil
	}
	for {
		// Every event in the current level-0 slot expires exactly now.
		if l0 := &w.level[0]; l0.occupied&(1<<uint(w.cur&wheelMask)) != 0 {
			e := l0.slots[w.cur&wheelMask].head
			w.unlink(e)
			w.count--
			if w.peekOK && e.at == w.peekAt {
				w.peekOK = false
			}
			return e
		}
		w.advance()
	}
}

// advance moves the current tick to the next occupied slot, cascading
// higher-level buckets down as their ranges are entered. Callers
// guarantee count > 0.
func (w *wheelQueue) advance() {
	// Remaining slots of the level-0 epoch hold exact expiries; jump
	// straight to the first occupied one.
	idx := uint(w.cur & wheelMask)
	if rest := w.level[0].occupied &^ (1<<(idx+1) - 1); rest != 0 {
		w.cur = w.cur&^wheelMask | uint64(bits.TrailingZeros64(rest))
		return
	}
	for lvl := 1; lvl < wheelLevels; lvl++ {
		shift := uint(lvl) * wheelBits
		idx := uint(w.cur>>shift) & wheelMask
		// The slot covering the current tick was cascaded (and cleared)
		// when its range was entered, so only strictly later slots count.
		rest := w.level[lvl].occupied &^ (1<<(idx+1) - 1)
		if rest == 0 {
			continue
		}
		slot := uint64(bits.TrailingZeros64(rest))
		// Jump to the start of that slot's range, then cascade its
		// events down; they re-place relative to the new tick.
		w.cur = w.cur&^(1<<(shift+wheelBits)-1) | slot<<shift
		s := &w.level[lvl].slots[slot]
		e := s.head
		s.head, s.tail = nil, nil
		w.level[lvl].occupied &^= 1 << uint(slot)
		for e != nil {
			next := e.next
			l, sl := w.place(uint64(e.at))
			w.link(e, l, sl)
			e = next
		}
		return
	}
	panic("sim: wheel has pending events but no occupied slot")
}

func (w *wheelQueue) peek() (Time, bool) {
	if w.count == 0 {
		return 0, false
	}
	if w.peekOK {
		return w.peekAt, true
	}
	// Recompute the exact minimum without advancing the wheel. The
	// first level (scanning upward) with an occupied slot at or beyond
	// the current position holds it: every lower level is empty ahead,
	// and higher levels only hold strictly later ranges.
	idx := uint(w.cur & wheelMask)
	if rest := w.level[0].occupied &^ (1<<idx - 1); rest != 0 {
		slot := uint64(bits.TrailingZeros64(rest))
		w.peekAt, w.peekOK = Time(w.cur&^wheelMask|slot), true
		return w.peekAt, true
	}
	for lvl := 1; lvl < wheelLevels; lvl++ {
		shift := uint(lvl) * wheelBits
		idx := uint(w.cur>>shift) & wheelMask
		rest := w.level[lvl].occupied &^ (1<<(idx+1) - 1)
		if rest == 0 {
			continue
		}
		// Higher-level slots span many ticks; scan the bucket for its
		// earliest expiry.
		slot := bits.TrailingZeros64(rest)
		min := Time(-1)
		for e := w.level[lvl].slots[slot].head; e != nil; e = e.next {
			if min < 0 || e.at < min {
				min = e.at
			}
		}
		w.peekAt, w.peekOK = min, true
		return min, true
	}
	panic("sim: wheel has pending events but no occupied slot")
}
