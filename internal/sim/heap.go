package sim

// eventHeap is the small-kernel queue: a 4-ary min-heap over (at, seq)
// whose entries carry their own key, so a sift compares slice cells and
// never dereferences an *Event. Sifts move a hole instead of swapping:
// one entry copy and one Event.index store per level. Four children a
// node halves the depth of a binary heap, and the four keys of one
// node's children sit in two cache lines.
//
// Like the wheel it maintains Event.index (>= 0 iff queued; the heap
// position here) and drops its reference as an event leaves.
type eventHeap []heapEntry

type heapEntry struct {
	at  Time
	seq uint64
	e   *Event
}

// before is the kernel's total order: time, then scheduling order.
func (a *heapEntry) before(b *heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h *eventHeap) push(e *Event) {
	*h = append(*h, heapEntry{})
	h.up(len(*h)-1, heapEntry{e.at, e.seq, e})
}

// pop unlinks and returns the earliest event (FIFO by seq at equal
// times), or nil if empty.
func (h *eventHeap) pop() *Event {
	if len(*h) == 0 {
		return nil
	}
	e := (*h)[0].e
	h.remove(e)
	return e
}

func (h *eventHeap) remove(e *Event) {
	q := *h
	i, n := e.index, len(q)-1
	last := q[n]
	q[n] = heapEntry{} // release the slot: no reference beyond len
	*h = q[:n]
	e.index = -1
	if i == n {
		return
	}
	if i > 0 && last.before(&q[(i-1)/4]) {
		h.up(i, last)
	} else {
		h.down(i, last)
	}
}

// up settles x into the hole at i, moving the hole toward the root.
func (h eventHeap) up(i int, x heapEntry) {
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].e.index = i
		i = p
	}
	h[i] = x
	x.e.index = i
}

// down settles x into the hole at i, moving the hole toward the leaves.
func (h eventHeap) down(i int, x heapEntry) {
	for {
		c := 4*i + 1
		if c >= len(h) {
			break
		}
		m, end := c, min(c+4, len(h))
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		h[i].e.index = i
		i = m
	}
	h[i] = x
	x.e.index = i
}
