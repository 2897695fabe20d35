package transport

import (
	"sync"
	"time"
)

// The retry machinery: a sharded table of in-flight reliable sends
// driven by one timer-wheel goroutine, replacing the previous
// goroutine-plus-timer per request. At fleet scale the old shape cost
// one goroutine, one runtime timer and one channel per outstanding
// send; the wheel costs one goroutine and one timer for the whole
// transport, and scheduling a retry is an append into a slot slice.

// pendShards is the number of in-flight table shards. Sharding by
// request ID keeps ack processing (receive path) from contending with
// new sends and with the wheel's sweep.
const pendShards = 16

type pendingShard struct {
	mu sync.Mutex
	m  map[uint64]inflight // by value: a send allocates its frame, no entry
}

// inflight is one reliable send awaiting acknowledgment.
type inflight struct {
	frame    []byte
	st       *peerState
	deadline time.Time
	delay    time.Duration // next retransmit backoff step
}

// retryWheel schedules retransmit instants at tick granularity. A slot
// holds the request IDs due in that tick; IDs are resolved against the
// pending table when due, so an acked request simply no longer
// resolves — cancellation is free.
type retryWheel struct {
	mu    sync.Mutex
	slots [][]uint64
	cur   int
	tick  time.Duration
}

func newRetryWheel(retryBase, retryCap time.Duration) *retryWheel {
	tick := retryBase / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	slots := int(retryCap/tick) + 2
	if slots < 16 {
		slots = 16
	}
	return &retryWheel{slots: make([][]uint64, slots), tick: tick}
}

// schedule enqueues id to fire after roughly d (clamped to the wheel
// horizon; retryCap fits by construction).
func (w *retryWheel) schedule(id uint64, d time.Duration) {
	n := int(d / w.tick)
	if n < 1 {
		n = 1
	}
	if n >= len(w.slots) {
		n = len(w.slots) - 1
	}
	w.mu.Lock()
	i := (w.cur + n) % len(w.slots)
	w.slots[i] = append(w.slots[i], id)
	w.mu.Unlock()
}

// advance moves the wheel one tick and appends the due IDs to due.
func (w *retryWheel) advance(due []uint64) []uint64 {
	w.mu.Lock()
	w.cur = (w.cur + 1) % len(w.slots)
	s := w.slots[w.cur]
	due = append(due, s...)
	w.slots[w.cur] = s[:0]
	w.mu.Unlock()
	return due
}
