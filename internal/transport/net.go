package transport

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// NetConfig parameterizes a Net transport.
type NetConfig struct {
	// Addr is the UDP listen address; default "127.0.0.1:0" (loopback,
	// kernel-assigned port).
	Addr string
	// RetryBase is the first retransmit delay for reliable sends;
	// default 25 ms. Each retry doubles it, capped at RetryCap
	// (default 400 ms) — capped exponential backoff.
	RetryBase time.Duration
	RetryCap  time.Duration
	// RequestTimeout is the per-request deadline: a reliable send that
	// has not been acknowledged this long after submission stops
	// retrying and counts as expired. Default 5 s.
	RequestTimeout time.Duration
	// RecvLoops is the number of goroutines blocked in socket reads,
	// each decoding into its own pooled buffer; default 2.
	RecvLoops int
	// RecvQueues is the number of ring-buffer shard queues between the
	// receive loops and the dispatch workers (one worker per queue).
	// Datagrams shard by source address, so one peer's traffic stays
	// ordered. Default 4.
	RecvQueues int
	// QueueCap is the per-queue datagram capacity. A full queue drops
	// its OLDEST entry (counted in Stats().QueueDrops) instead of
	// blocking the socket or growing without bound — reliable senders
	// retransmit, so backpressure costs latency, not delivery.
	// Default 1024.
	QueueCap int
	// BatchBytes budgets per-peer send coalescing: sends to one
	// destination queue and leave packed into batch datagrams of at
	// most this many bytes. A queue is flushed as soon as its sender
	// goes idle — there is no timer to wait out — or earlier, when the
	// next message would overflow the budget. Default 1400 (one
	// conservative MTU).
	BatchBytes int
	// MaxBatch caps messages per batch datagram; default 256.
	MaxBatch int
	// DropRate injects independent datagram loss on the send path
	// (testing the retry machinery without tc/netem); DropSeed makes
	// the injected loss deterministic.
	DropRate float64
	DropSeed uint64
}

func (c NetConfig) withDefaults() NetConfig {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 400 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = defaultRequestTimeout
	}
	if c.RecvLoops <= 0 {
		c.RecvLoops = 2
	}
	if c.RecvQueues <= 0 {
		c.RecvQueues = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.BatchBytes <= 0 {
		c.BatchBytes = 1400
	}
	if c.BatchBytes < batchOverhead+perSubOverhead+16 {
		c.BatchBytes = batchOverhead + perSubOverhead + 16
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxBatch > maxBatchSubs {
		c.MaxBatch = maxBatchSubs
	}
	return c
}

// NetStats counts datagram-level outcomes.
type NetStats struct {
	Sent        uint64 // first transmissions
	Resent      uint64 // retransmissions
	Acked       uint64 // reliable sends confirmed by the peer
	Expired     uint64 // reliable sends that hit the request deadline
	Received    uint64 // data frames delivered to a handler
	Dups        uint64 // data frames suppressed by request-ID dedup
	NoHandler   uint64 // data frames for an unbound endpoint
	Injected    uint64 // datagrams dropped by the injected-loss model
	Malformed   uint64 // frames that failed to decode
	QueueDrops  uint64 // datagrams evicted from full receive queues
	BatchesSent uint64 // batch frames transmitted (first transmissions)
	BatchesRecv uint64 // batch frames received
	Coalesced   uint64 // messages that traveled inside batch frames
}

// peerState is the per-destination-address send state: the resolved
// address and the coalescing queue of encoded sub-frames awaiting a
// flush. Peers register once per distinct address; every endpoint name
// routed to the same address shares one peerState, so a daemon
// answering a thousand provers behind one client socket coalesces
// across all of them.
type peerState struct {
	ap netip.AddrPort

	cmu   sync.Mutex // guards the coalescing queue below
	q     []byte     // length-prefixed encoded sub-frames
	qn    int
	dirty bool // listed in Net.dirty, awaiting the flusher
}

// Net is a Transport over real UDP sockets. One Net owns one socket
// and can host many named endpoints (a verifier daemon binds one name;
// a fleet client binds thousands of prover names on a single socket).
//
// Reliability: a Send with ReqID != 0 (Send assigns one when zero) is
// retransmitted with capped exponential backoff until the peer's ack
// arrives or the per-request deadline expires; retransmit state lives
// in a sharded pending table swept by one timer-wheel goroutine.
// Receivers acknowledge every identified data or batch frame —
// duplicates included — and suppress re-delivery of a (from, request
// ID) pair, so retries are idempotent end to end. Routes are learned
// from inbound traffic (a daemon discovers each prover's address from
// its first datagram) or pinned with AddRoute / the Dial default
// route.
//
// Send path: messages queue per destination address and leave as soon
// as their sender goes idle (see flusher), packed into batch frames
// when more than one is waiting; no send waits on a clock.
//
// Receive path: RecvLoops goroutines read datagrams into pooled
// buffers and decode them in place (zero-copy view frames), feeding
// RecvQueues fixed-capacity ring queues sharded by source address;
// one worker per queue acks, dedups and dispatches. Handlers run on
// those workers — a blocking handler stalls only its shard. Buffers
// return to the pool when the worker finishes a frame, which is why
// view frames must not be retained past the handler (see Frame).
//
// Unlike Sim, Net is safe for concurrent use.
type Net struct {
	cfg  NetConfig
	conn *net.UDPConn

	pmu    sync.RWMutex
	peers  map[string]*peerState // endpoint name -> destination
	byAddr map[netip.AddrPort]*peerState
	def    *peerState

	hmu      sync.RWMutex
	handlers map[string]FrameHandler

	// The loss model has a dedicated lock: injected-loss draws happen
	// on every transmission, and serializing them behind the route or
	// handler locks would make ack processing contend with Bind and
	// route learning.
	lossMu  sync.Mutex
	dropRNG *mrand.Rand

	pend  [pendShards]pendingShard
	wheel *retryWheel

	// Flush-on-idle: a Send that leaves a peer's queue non-empty lists
	// the peer here and wakes the flusher, which runs as soon as the
	// scheduler has a P for it — on a busy P, when the sender parks.
	dmu   sync.Mutex
	dirty []*peerState
	wake  chan struct{} // 1 slot: a pending wake covers every listing before it

	start  time.Time // zero of the dedup clock (monotonic)
	dedups [dedupShards]struct {
		mu sync.Mutex
		dd dedup
	}

	queues  []*pktRing
	bufPool sync.Pool

	reqID   atomic.Uint64
	closing atomic.Bool
	closed  chan struct{}
	wg      sync.WaitGroup
	stats   struct {
		sent, resent, acked, expired, received, dups, noHandler, injected, malformed atomic.Uint64
		queueDrops, batchesSent, batchesRecv, coalesced                              atomic.Uint64
	}
}

// dedupShards shards the request-ID dedup state by sender name, so
// dispatch workers processing different peers never serialize on one
// lock.
const dedupShards = 16

// recvBuf is one pooled datagram — a copy, sized to the bytes read, of
// what a recvLoop's read buffer held — plus the view frame decoded from
// it. The epoch counter advances every time the buffer returns
// to the pool; Frame views into the buffer are valid only within one
// epoch (the handler invocation they were delivered to).
type recvBuf struct {
	data  []byte
	from  netip.AddrPort
	frame Frame
	epoch atomic.Uint64
}

// Listen opens a Net transport on cfg.Addr.
func Listen(cfg NetConfig) (*Net, error) {
	cfg = cfg.withDefaults()
	addr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", cfg.Addr, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", cfg.Addr, err)
	}
	n := &Net{
		cfg:      cfg,
		conn:     conn,
		peers:    map[string]*peerState{},
		byAddr:   map[netip.AddrPort]*peerState{},
		handlers: map[string]FrameHandler{},
		wheel:    newRetryWheel(cfg.RetryBase, cfg.RetryCap),
		wake:     make(chan struct{}, 1),
		closed:   make(chan struct{}),
		start:    time.Now(),
	}
	for i := range n.dedups {
		// A peer stops retransmitting at its own request timeout, which
		// we cannot see; ours stands in for it (DESIGN §7).
		n.dedups[i].dd = newDedup(cfg.RequestTimeout)
	}
	n.bufPool.New = func() any { return &recvBuf{data: make([]byte, 0, recvBufSize)} }
	for i := range n.pend {
		n.pend[i].m = map[uint64]*inflight{}
	}
	if cfg.DropRate > 0 {
		n.dropRNG = mrand.New(mrand.NewPCG(cfg.DropSeed, 0xd809))
	}
	// Random starting request ID: IDs stay unique across process
	// restarts, so a rebooted peer cannot collide with what the
	// receiver still remembers of its previous life.
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		n.reqID.Store(binary.BigEndian.Uint64(b[:]) | 1)
	} else {
		n.reqID.Store(uint64(time.Now().UnixNano()) | 1)
	}
	n.queues = make([]*pktRing, cfg.RecvQueues)
	for i := range n.queues {
		n.queues[i] = newPktRing(cfg.QueueCap)
		n.wg.Add(1)
		go n.worker(n.queues[i])
	}
	for i := 0; i < cfg.RecvLoops; i++ {
		n.wg.Add(1)
		go n.recvLoop()
	}
	n.wg.Add(2)
	go n.runWheel()
	go n.flusher()
	return n, nil
}

// Dial opens a client Net on an ephemeral loopback port and routes
// every destination without an explicit route to addr — the shape a
// prover uses to reach a verifier daemon.
func Dial(addr string, cfg NetConfig) (*Net, error) {
	n, err := Listen(cfg)
	if err != nil {
		return nil, err
	}
	udp, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		n.Close()
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	n.pmu.Lock()
	n.def = n.peerForLocked(canonical(udp.AddrPort()))
	n.pmu.Unlock()
	return n, nil
}

// canonical strips the IPv4-in-IPv6 mapping so that one peer has one
// address identity regardless of which stack a datagram arrived on.
func canonical(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// peerForLocked returns (creating if needed) the peerState for ap.
// Callers hold pmu.
func (n *Net) peerForLocked(ap netip.AddrPort) *peerState {
	st := n.byAddr[ap]
	if st == nil {
		st = &peerState{ap: ap}
		n.byAddr[ap] = st
	}
	return st
}

// Addr returns the bound socket address (useful with ":0").
func (n *Net) Addr() net.Addr { return n.conn.LocalAddr() }

// AddRoute pins a static name -> address route.
func (n *Net) AddRoute(name, addr string) error {
	udp, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	n.pmu.Lock()
	n.peers[name] = n.peerForLocked(canonical(udp.AddrPort()))
	n.pmu.Unlock()
	return nil
}

// Bind implements Transport. The handler receives owning Msg copies
// (Frame.Msg of each delivered frame); for the allocation-free view
// form use BindFrames.
func (n *Net) Bind(name string, h Handler) error {
	if h == nil {
		return fmt.Errorf("transport: nil handler for %q", name)
	}
	return n.BindFrames(name, func(f *Frame) { h(f.Msg()) })
}

// BindFrames implements Transport: the handler receives view frames
// whose byte fields alias a pooled receive buffer; they are valid only
// until the handler returns (detach with Frame.Copy or Frame.Msg to
// retain).
func (n *Net) BindFrames(name string, h FrameHandler) error {
	if h == nil {
		return fmt.Errorf("transport: nil frame handler for %q", name)
	}
	if n.closing.Load() {
		return errors.New("transport: net closed")
	}
	n.hmu.Lock()
	n.handlers[name] = h
	n.hmu.Unlock()
	return nil
}

// Unbind implements Transport.
func (n *Net) Unbind(name string) {
	n.hmu.Lock()
	delete(n.handlers, name)
	n.hmu.Unlock()
}

// route resolves the destination peer for an endpoint name.
func (n *Net) route(to string) (*peerState, error) {
	n.pmu.RLock()
	st := n.peers[to]
	if st == nil {
		st = n.def
	}
	n.pmu.RUnlock()
	if st == nil {
		return nil, fmt.Errorf("transport: no route to %q", to)
	}
	return st, nil
}

// Send implements Transport. It assigns a fresh request ID when
// m.ReqID is zero, queues the frame for its destination (to leave alone
// or coalesced into a batch datagram as soon as this sender goes idle),
// and retries with backoff until acked or the request deadline passes.
// Send itself does not block on delivery.
func (n *Net) Send(m Msg) error {
	st, err := n.prepare(&m)
	if err != nil {
		return err
	}
	st.cmu.Lock()
	n.enqueueLocked(st, &m)
	// Hand the peer to the flusher unless the queue already left (it
	// filled) or an earlier Send's listing is still outstanding.
	list := st.qn > 0 && !st.dirty
	if list {
		st.dirty = true
	}
	st.cmu.Unlock()
	if list {
		n.dmu.Lock()
		n.dirty = append(n.dirty, st)
		n.dmu.Unlock()
		select {
		case n.wake <- struct{}{}:
		default: // a wake is already pending; it covers this listing
		}
	}
	return nil
}

// prepare validates an outbound message, assigns its request ID and
// resolves its destination.
func (n *Net) prepare(m *Msg) (*peerState, error) {
	if m.Kind == KindInvalid || m.Kind >= kindMax {
		return nil, fmt.Errorf("transport: cannot send kind %v", m.Kind)
	}
	if n.closing.Load() {
		return nil, errors.New("transport: net closed")
	}
	if m.ReqID == 0 {
		m.ReqID = n.reqID.Add(1)
	}
	return n.route(m.To)
}

// SendBatch implements Transport: the caller has the whole burst in
// hand, so it queues every message into its destination's coalescing
// buffer (flushing on the size budget) and flushes the touched
// destinations itself at the end — the burst leaves in as few
// datagrams as the budget allows without waiting for the flusher.
func (n *Net) SendBatch(ms []Msg) error {
	var few [4]*peerState
	touched := few[:0]
	var err error
	for i := range ms {
		m := ms[i]
		var st *peerState
		if st, err = n.prepare(&m); err != nil {
			break
		}
		st.cmu.Lock()
		n.enqueueLocked(st, &m)
		st.cmu.Unlock()
		if !slices.Contains(touched, st) {
			touched = append(touched, st)
		}
	}
	for _, st := range touched {
		st.cmu.Lock()
		n.flushLocked(st)
		st.cmu.Unlock()
	}
	return err
}

// enqueueLocked encodes m straight onto st's queue. One queue carries
// everything bound for st, in submission order: a message that does
// not fit behind what is queued pushes that out first, and one too
// large for any batch leaves at once as a plain data frame — after
// what preceded it, never around it. Callers hold st.cmu.
func (n *Net) enqueueLocked(st *peerState, m *Msg) {
	mark := len(st.q)
	st.q = appendSub(be32(st.q, 0), m)
	binary.BigEndian.PutUint32(st.q[mark:], uint32(len(st.q)-mark-perSubOverhead))
	if mark > 0 && batchOverhead+len(st.q) > n.cfg.BatchBytes {
		// Roll the append back, send what was queued, requeue m at
		// the front (same backing array; append copies like memmove).
		sub := st.q[mark:]
		st.q = st.q[:mark]
		n.flushLocked(st)
		st.q = append(st.q, sub...)
	}
	st.qn++
	if st.qn >= n.cfg.MaxBatch || batchOverhead+len(st.q) > n.cfg.BatchBytes {
		n.flushLocked(st)
	}
}

// flusher is the one goroutine that sends what Send queued. It holds no
// clock: it is woken when a peer's queue becomes non-empty and gets the
// processor when the scheduler has one free — at once on an idle P,
// and on a busy one when the sender (a caller mid-burst, a dispatch
// worker mid-backlog) parks. Whatever that sender queued meanwhile
// rides in the same datagram, so batches grow with load, not with time.
func (n *Net) flusher() {
	defer n.wg.Done()
	var batch []*peerState
	for {
		select {
		case <-n.closed:
			return
		case <-n.wake:
		}
		n.dmu.Lock()
		batch, n.dirty = n.dirty, batch[:0]
		n.dmu.Unlock()
		for _, st := range batch {
			st.cmu.Lock()
			st.dirty = false
			n.flushLocked(st)
			st.cmu.Unlock()
		}
	}
}

// flushLocked emits st's queued sub-frames as one datagram: a plain
// data frame when only one message is queued (no batch overhead), a
// batch frame otherwise. Callers hold st.cmu.
func (n *Net) flushLocked(st *peerState) {
	if st.qn == 0 {
		return
	}
	var frame []byte
	var id uint64
	if st.qn == 1 {
		sub := st.q[perSubOverhead:]
		id = binary.BigEndian.Uint64(sub[:8])
		frame = make([]byte, 0, 4+len(sub))
		frame = append(frame, codecMagic0, codecMagic1, CodecVersion, frameData)
		frame = append(frame, sub...)
	} else {
		id = n.reqID.Add(1)
		frame = make([]byte, 0, batchOverhead+len(st.q))
		frame = append(frame, codecMagic0, codecMagic1, CodecVersion, frameBatch)
		frame = be64(frame, id)
		frame = be16(frame, uint16(st.qn))
		frame = append(frame, st.q...)
		n.stats.batchesSent.Add(1)
		n.stats.coalesced.Add(uint64(st.qn))
	}
	st.q = st.q[:0]
	st.qn = 0
	n.sendReliable(id, frame, st)
}

// sendReliable registers frame in the pending table, transmits it, and
// schedules its first retransmit on the wheel.
func (n *Net) sendReliable(id uint64, frame []byte, st *peerState) {
	e := &inflight{
		frame:    frame,
		st:       st,
		deadline: time.Now().Add(n.cfg.RequestTimeout),
		delay:    n.cfg.RetryBase,
	}
	sh := &n.pend[id%pendShards]
	sh.mu.Lock()
	sh.m[id] = e
	sh.mu.Unlock()
	n.transmit(frame, st.ap, false)
	n.wheel.schedule(id, n.cfg.RetryBase)
}

// runWheel is the single retry goroutine: every wheel tick it
// retransmits the due in-flight sends and expires the ones past their
// deadline. Acked requests were removed from the pending table by the
// receive path and simply no longer resolve.
func (n *Net) runWheel() {
	defer n.wg.Done()
	t := time.NewTicker(n.wheel.tick)
	defer t.Stop()
	var due []uint64
	for {
		select {
		case <-n.closed:
			return
		case <-t.C:
		}
		due = n.wheel.advance(due[:0])
		now := time.Now()
		for _, id := range due {
			sh := &n.pend[id%pendShards]
			sh.mu.Lock()
			e := sh.m[id]
			if e == nil {
				sh.mu.Unlock()
				continue
			}
			if !now.Before(e.deadline) {
				delete(sh.m, id)
				sh.mu.Unlock()
				n.stats.expired.Add(1)
				continue
			}
			frame, ap := e.frame, e.st.ap
			delay := e.delay
			e.delay *= 2
			if e.delay > n.cfg.RetryCap {
				e.delay = n.cfg.RetryCap
			}
			sh.mu.Unlock()
			n.transmit(frame, ap, true)
			n.wheel.schedule(id, delay)
		}
	}
}

// transmit writes one datagram, applying injected loss.
func (n *Net) transmit(frame []byte, ap netip.AddrPort, retry bool) {
	if n.dropRNG != nil {
		n.lossMu.Lock()
		drop := n.dropRNG.Float64() < n.cfg.DropRate
		n.lossMu.Unlock()
		if drop {
			n.stats.injected.Add(1)
			return
		}
	}
	if retry {
		n.stats.resent.Add(1)
	} else {
		n.stats.sent.Add(1)
	}
	n.conn.WriteToUDPAddrPort(frame, ap)
}

// recvBufSize is what a pooled recvBuf holds: BatchBytes defaults to 1,400,
// so a full ring costs its slots times this, not times the 64 KiB a UDP
// read must be ready for. A larger frame grows its buffer; putBuf trims it.
const recvBufSize = 2 << 10

func (n *Net) putBuf(rb *recvBuf) {
	rb.epoch.Add(1) // invalidate any views still pointing here
	if cap(rb.data) > recvBufSize {
		rb.data = make([]byte, 0, recvBufSize)
	}
	n.bufPool.Put(rb)
}

// recvLoop reads datagrams into its own buffer, copies each into a
// pooled one and decodes it there, consumes acks inline (they only
// touch the pending table), and feeds data and batch frames to the
// shard queues.
func (n *Net) recvLoop() {
	defer n.wg.Done()
	read := make([]byte, 64<<10) // the largest UDP datagram
	for {
		sz, from, err := n.conn.ReadFromUDPAddrPort(read)
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
			}
			if n.closing.Load() {
				// Close() shuts the socket before closing n.closed;
				// don't spin on the resulting read errors.
				return
			}
			continue
		}
		rb := n.bufPool.Get().(*recvBuf)
		rb.data = append(rb.data[:0], read[:sz]...)
		if err := DecodeFrameInto(rb.data, &rb.frame); err != nil {
			n.stats.malformed.Add(1)
			n.putBuf(rb)
			continue
		}
		if rb.frame.Ack {
			n.handleAck(&rb.frame)
			n.putBuf(rb)
			continue
		}
		rb.from = canonical(from)
		q := n.queues[addrShard(rb.from, len(n.queues))]
		if dropped := q.push(rb); dropped != nil {
			if dropped != rb {
				n.stats.queueDrops.Add(1)
			}
			n.putBuf(dropped)
		}
	}
}

// handleAck resolves an ack against the pending table: the request is
// confirmed.
func (n *Net) handleAck(f *Frame) {
	sh := &n.pend[f.ReqID%pendShards]
	sh.mu.Lock()
	e := sh.m[f.ReqID]
	delete(sh.m, f.ReqID)
	sh.mu.Unlock()
	if e == nil {
		return
	}
	n.stats.acked.Add(1)
}

// addrShard maps a source address onto a queue index (FNV-1a over the
// 16-byte address and port).
func addrShard(ap netip.AddrPort, mod int) int {
	a16 := ap.Addr().As16()
	h := uint32(2166136261)
	for _, b := range a16 {
		h = (h ^ uint32(b)) * 16777619
	}
	h = (h ^ uint32(ap.Port())) * 16777619
	return int(h % uint32(mod))
}

func strShard(s string) int {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return int(h % dedupShards)
}

// worker drains one shard queue: ack, learn route, dedup, dispatch,
// recycle the buffer.
func (n *Net) worker(q *pktRing) {
	defer n.wg.Done()
	ack := make([]byte, 0, headerLen)
	for {
		rb := q.pop()
		if rb == nil {
			return
		}
		f := &rb.frame
		now := int64(time.Since(n.start))
		if f.Batch {
			n.stats.batchesRecv.Add(1)
			if f.ReqID != 0 {
				ack = n.sendAck(ack, f.ReqID, rb.from)
			}
			for i := range f.Sub {
				n.deliver(&f.Sub[i], rb.from, now)
			}
		} else {
			// Ack duplicates included — the peer may have missed our
			// first ack, and the ack is what stops its retries.
			if f.ReqID != 0 {
				ack = n.sendAck(ack, f.ReqID, rb.from)
			}
			n.deliver(f, rb.from, now)
		}
		n.putBuf(rb)
	}
}

// sendAck transmits an ack frame through the injected-loss model (a
// lost ack is exactly what forces the duplicate-suppression path).
func (n *Net) sendAck(scratch []byte, reqID uint64, to netip.AddrPort) []byte {
	scratch = AppendAck(scratch[:0], reqID)
	if n.dropRNG != nil {
		n.lossMu.Lock()
		drop := n.dropRNG.Float64() < n.cfg.DropRate
		n.lossMu.Unlock()
		if drop {
			n.stats.injected.Add(1)
			return scratch
		}
	}
	n.conn.WriteToUDPAddrPort(scratch, to)
	return scratch
}

// deliver routes one decoded data frame (standalone or batch sub) to
// its handler: find the handler, learn the sender's address, suppress
// duplicates, dispatch. The handler comes first so that a frame for an
// endpoint nobody bound costs no route and no dedup state; the route is
// learned before dedup, so a retransmission from a new address still
// updates it.
func (n *Net) deliver(f *Frame, from netip.AddrPort, now int64) {
	n.hmu.RLock()
	h := n.handlers[f.To]
	n.hmu.RUnlock()
	if h == nil {
		n.stats.noHandler.Add(1)
		return
	}
	n.learnPeer(f.From, from)
	if f.ReqID != 0 {
		ds := &n.dedups[strShard(f.From)]
		ds.mu.Lock()
		dup := ds.dd.seen(f.From, f.fromID, f.ReqID, now)
		ds.mu.Unlock()
		if dup {
			n.stats.dups.Add(1)
			return
		}
	}
	n.stats.received.Add(1)
	h(f)
}

// learnPeer records name -> address.
func (n *Net) learnPeer(name string, from netip.AddrPort) {
	if name == "" {
		return
	}
	n.pmu.RLock()
	st := n.peers[name]
	n.pmu.RUnlock()
	if st == nil || st.ap != from {
		n.pmu.Lock()
		st = n.peerForLocked(from)
		n.peers[name] = st
		n.pmu.Unlock()
	}
}

// flushAll flushes every destination's coalescing queue.
func (n *Net) flushAll() {
	n.pmu.RLock()
	sts := make([]*peerState, 0, len(n.byAddr))
	for _, st := range n.byAddr {
		sts = append(sts, st)
	}
	n.pmu.RUnlock()
	for _, st := range sts {
		st.cmu.Lock()
		n.flushLocked(st)
		st.cmu.Unlock()
	}
}

// pendingCount is the number of reliable sends awaiting ack.
func (n *Net) pendingCount() int {
	total := 0
	for i := range n.pend {
		sh := &n.pend[i]
		sh.mu.Lock()
		total += len(sh.m)
		sh.mu.Unlock()
	}
	return total
}

// Drain blocks until every reliable send has been acked or expired, or
// the timeout passes. Zero timeout uses the request deadline. Queued
// coalesced sends are flushed first.
func (n *Net) Drain(timeout time.Duration) {
	if timeout <= 0 {
		timeout = n.cfg.RequestTimeout
	}
	n.flushAll()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if n.pendingCount() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close implements Transport: it stops accepting new sends, drains
// in-flight reliable sends (bounded by the request deadline), then
// closes the socket and joins the receive, worker, retry and flusher
// goroutines.
func (n *Net) Close() error {
	if n.closing.Swap(true) {
		return nil
	}
	n.Drain(0)
	err := n.conn.Close()
	close(n.closed)
	for _, q := range n.queues {
		q.close()
	}
	n.wg.Wait()
	for i := range n.pend {
		sh := &n.pend[i]
		sh.mu.Lock()
		clear(sh.m)
		sh.mu.Unlock()
	}
	return err
}

// Stats returns a snapshot of datagram counters.
func (n *Net) Stats() NetStats {
	return NetStats{
		Sent:        n.stats.sent.Load(),
		Resent:      n.stats.resent.Load(),
		Acked:       n.stats.acked.Load(),
		Expired:     n.stats.expired.Load(),
		Received:    n.stats.received.Load(),
		Dups:        n.stats.dups.Load(),
		NoHandler:   n.stats.noHandler.Load(),
		Injected:    n.stats.injected.Load(),
		Malformed:   n.stats.malformed.Load(),
		QueueDrops:  n.stats.queueDrops.Load(),
		BatchesSent: n.stats.batchesSent.Load(),
		BatchesRecv: n.stats.batchesRecv.Load(),
		Coalesced:   n.stats.coalesced.Load(),
	}
}
