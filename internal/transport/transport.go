// Package transport defines the packet transports the live (real-time)
// protocol drivers run over, plus an in-memory multicast hub for tests
// and examples that need no network at all. The same sans-I/O protocol
// machines also run under internal/netsim; this interface is only for
// wall-clock operation.
//
// Since Transport v2 the native interface is batch-first (see
// BatchTransport in batch.go): implementations move []Envelope batches
// so one syscall or lock acquisition is amortized over many packets,
// and hot receive paths draw packet buffers from the shared pool
// (packet.Get/packet.Put). Transport adds per-packet Send and Recv on
// top, as batch-size-1 adapters.
package transport

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/packet"
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// Transport is a BatchTransport with per-packet Send and Recv. Every
// transport in this repository implements it, the per-packet methods
// as batch-size-1 adapters over SendBatch and RecvBatch. Drivers
// consume the batch methods, as internal/session does. Implementations
// must be safe for concurrent use.
type Transport interface {
	BatchTransport
	// Send transmits p to the whole group (multicast) or to one node.
	Send(p *packet.Packet, multicast bool, node packet.NodeID) error
	// Recv blocks until a packet arrives and returns it with the
	// source's node ID. It returns ErrClosed after Close.
	Recv() (*packet.Packet, packet.NodeID, error)
}

// hubInboxDepth bounds each endpoint's pending-delivery queue, playing
// the role of a kernel socket buffer: deliveries beyond it behave like
// network loss.
const hubInboxDepth = 4096

// Hub is an in-memory multicast domain: one process, many endpoints.
// Configurable loss and delay make it a convenient harness for
// demonstrating recovery without a real network. Endpoints are
// batch-first: a whole SendBatch takes the hub lock once for
// membership and loss draws, then each target endpoint's inbox lock
// once for the entire batch.
type Hub struct {
	mu     sync.Mutex
	eps    map[packet.NodeID]*hubEndpoint
	next   packet.NodeID
	groups map[string]GroupID // group name → dense ID, shared by all endpoints
	nextG  GroupID
	loss   float64
	delay  time.Duration
	rng    *rand.Rand
	closed bool
}

// HubOption configures a Hub.
type HubOption func(*Hub)

// WithLoss makes the hub drop each delivery independently with
// probability p, seeded deterministically. Loss draws happen under the
// hub lock (per envelope, per target), so concurrent batched senders
// share the rng safely.
func WithLoss(p float64, seed int64) HubOption {
	return func(h *Hub) {
		h.loss = p
		h.rng = rand.New(rand.NewSource(seed))
	}
}

// WithDelay adds a fixed one-way delivery delay. Delayed deliveries
// are cloned at send time, so the caller regains ownership of its
// packets as soon as SendBatch returns.
func WithDelay(d time.Duration) HubOption {
	return func(h *Hub) { h.delay = d }
}

// NewHub creates an in-memory multicast domain.
func NewHub(opts ...HubOption) *Hub {
	h := &Hub{
		eps:    make(map[packet.NodeID]*hubEndpoint),
		groups: make(map[string]GroupID),
		nextG:  1,
	}
	for _, o := range opts {
		o(h)
	}
	return h
}

// Endpoint creates a new endpoint attached to the hub.
func (h *Hub) Endpoint() Transport {
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.next
	h.next++
	ep := &hubEndpoint{
		hub:    h,
		id:     id,
		stage:  -1,
		notify: make(chan struct{}, 1),
	}
	h.eps[id] = ep
	return ep
}

type hubItem struct {
	pkt   *packet.Packet
	from  packet.NodeID
	group GroupID
}

// delivery is one target endpoint's share of a SendBatch.
type delivery struct {
	t     *hubEndpoint
	items []hubItem
}

type hubEndpoint struct {
	hub *Hub
	id  packet.NodeID

	// stage indexes this endpoint's delivery list while a SendBatch
	// holds the hub lock; -1 between batches. Guarded by hub.mu.
	stage int

	// joined is the endpoint's group membership set (nil until the
	// first Join). Group-addressed multicast (Envelope.Group != 0) is
	// delivered only to joined members. Guarded by hub.mu.
	joined map[GroupID]bool

	// filter is the consumer's early-demux predicate; senders consult
	// it before cloning a delivery for this endpoint.
	filter atomic.Pointer[InboundFilterFunc]

	mu    sync.Mutex
	queue []hubItem // pending deliveries, queue[head:] live
	head  int

	notify chan struct{} // capacity 1: "queue may be non-empty"
	closed sync.Once
	done   chan struct{}
	init   sync.Once
}

var (
	_ FilteredTransport = (*hubEndpoint)(nil)
	_ GroupTransport    = (*hubEndpoint)(nil)
)

// groupID resolves (or assigns) the hub-wide ID for a group name.
// Caller holds h.mu.
func (h *Hub) groupID(group string) GroupID {
	id, ok := h.groups[group]
	if !ok {
		id = h.nextG
		h.nextG++
		h.groups[group] = id
	}
	return id
}

// Join implements GroupTransport: the endpoint becomes a member of the
// named group and receives its group-addressed multicast from now on.
func (e *hubEndpoint) Join(group string) (GroupID, error) {
	h := e.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, ErrClosed
	}
	id := h.groupID(group)
	if e.joined == nil {
		e.joined = make(map[GroupID]bool)
	}
	e.joined[id] = true
	return id, nil
}

// Register implements GroupTransport: it resolves the group's ID for
// sending without membership.
func (e *hubEndpoint) Register(group string) (GroupID, error) {
	h := e.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, ErrClosed
	}
	return h.groupID(group), nil
}

// Leave implements GroupTransport.
func (e *hubEndpoint) Leave(gid GroupID) error {
	h := e.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(e.joined, gid)
	return nil
}

// GroupStats implements GroupReporter with the membership count; the
// hub does not meter per-endpoint datapath traffic.
func (e *hubEndpoint) GroupStats() GroupStats {
	h := e.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	return GroupStats{Joined: len(e.joined)}
}

// SetInboundFilter implements FilteredTransport.
func (e *hubEndpoint) SetInboundFilter(f InboundFilterFunc) {
	if f == nil {
		e.filter.Store(nil)
		return
	}
	e.filter.Store(&f)
}

// stageBuf is a pooled SendBatch staging area: the per-target delivery
// lists survive between batches so the hot path reuses their capacity
// instead of reallocating one slice per target per send.
type stageBuf struct {
	dels []delivery
}

var stagePool = sync.Pool{New: func() any { return new(stageBuf) }}

// add opens a delivery slot for t, reusing a truncated slot's item
// capacity when one is available.
func (sb *stageBuf) add(t *hubEndpoint) int {
	if len(sb.dels) < cap(sb.dels) {
		sb.dels = sb.dels[:len(sb.dels)+1]
		sb.dels[len(sb.dels)-1].t = t
	} else {
		sb.dels = append(sb.dels, delivery{t: t})
	}
	return len(sb.dels) - 1
}

// release clears packet references and returns the buffer to the pool.
func (sb *stageBuf) release() {
	for i := range sb.dels {
		for j := range sb.dels[i].items {
			sb.dels[i].items[j] = hubItem{}
		}
		sb.dels[i].items = sb.dels[i].items[:0]
		sb.dels[i].t = nil
	}
	sb.dels = sb.dels[:0]
	stagePool.Put(sb)
}

func (e *hubEndpoint) doneCh() chan struct{} {
	e.init.Do(func() { e.done = make(chan struct{}) })
	return e.done
}

func (e *hubEndpoint) Local() packet.NodeID { return e.id }

// SendBatch implements BatchTransport: one hub-lock acquisition covers
// membership lookup and loss draws for the whole batch, then each
// target's inbox is filled under a single lock acquisition. Unknown
// unicast nodes are silently dropped, like the network.
func (e *hubEndpoint) SendBatch(env []Envelope) error {
	h := e.hub
	sb := stagePool.Get().(*stageBuf)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		sb.release()
		return ErrClosed
	}
	keep := func(t *hubEndpoint, p *packet.Packet, g GroupID) {
		// Early demux: a target that could never route this packet to
		// a flow discards it before the loss draw and before cloning.
		if fp := t.filter.Load(); fp != nil && !(*fp)(&p.Header) {
			return
		}
		if h.rng != nil && h.rng.Float64() < h.loss {
			return
		}
		if t.stage < 0 {
			t.stage = sb.add(t)
		}
		sb.dels[t.stage].items = append(sb.dels[t.stage].items, hubItem{pkt: p, from: e.id, group: g})
	}
	for i := range env {
		switch {
		case env[i].Multicast && env[i].Group != 0:
			// Group-addressed multicast reaches the group's members only
			// — including the sending endpoint, matching real multicast
			// loopback, where a shared socket hosting both ends of a
			// group hears its own sends.
			for _, t := range h.eps {
				if t.joined[env[i].Group] {
					keep(t, env[i].Pkt, env[i].Group)
				}
			}
		case env[i].Multicast:
			for id, t := range h.eps {
				if id != e.id {
					keep(t, env[i].Pkt, 0)
				}
			}
		default:
			if t, ok := h.eps[env[i].To]; ok {
				keep(t, env[i].Pkt, 0)
			}
		}
	}
	for i := range sb.dels {
		sb.dels[i].t.stage = -1
	}
	delay := h.delay
	h.mu.Unlock()

	// Clone surviving deliveries into pooled packets before returning,
	// so the caller regains ownership of its batch even under delay.
	for _, d := range sb.dels {
		for i := range d.items {
			d.items[i].pkt = clonePacket(d.items[i].pkt)
		}
	}
	deliver := func() {
		for _, d := range sb.dels {
			d.t.enqueue(d.items)
		}
		sb.release()
	}
	if delay > 0 {
		time.AfterFunc(delay, deliver)
	} else {
		deliver()
	}
	return nil
}

// clonePacket deep-copies p into a pooled packet, recycling both the
// packet struct and the payload backing array.
func clonePacket(p *packet.Packet) *packet.Packet {
	q := packet.GetBuf(len(p.Payload))
	p.CloneInto(q)
	return q
}

// enqueue appends a whole delivery batch to the inbox under one lock
// acquisition. Overflow beyond hubInboxDepth behaves like loss, and the
// dropped clones go straight back to the packet pool.
func (e *hubEndpoint) enqueue(items []hubItem) {
	select {
	case <-e.doneCh():
		for _, it := range items {
			packet.Put(it.pkt)
		}
		return
	default:
	}
	e.mu.Lock()
	if e.head > 0 {
		n := copy(e.queue, e.queue[e.head:])
		for i := n; i < len(e.queue); i++ {
			e.queue[i] = hubItem{}
		}
		e.queue = e.queue[:n]
		e.head = 0
	}
	space := hubInboxDepth - len(e.queue)
	for i, it := range items {
		if i >= space {
			packet.Put(it.pkt)
			continue
		}
		e.queue = append(e.queue, it)
	}
	e.mu.Unlock()
	select {
	case e.notify <- struct{}{}:
	default:
	}
}

// pop moves up to len(buf) pending deliveries into buf. It re-arms the
// notify token when items remain, so a second blocked reader wakes.
func (e *hubEndpoint) pop(buf []Envelope) int {
	e.mu.Lock()
	n := len(e.queue) - e.head
	if n > len(buf) {
		n = len(buf)
	}
	for i := 0; i < n; i++ {
		it := e.queue[e.head+i]
		e.queue[e.head+i] = hubItem{}
		buf[i] = Envelope{Pkt: it.pkt, From: it.from, Group: it.group}
	}
	e.head += n
	remaining := len(e.queue) - e.head
	if remaining == 0 {
		e.queue = e.queue[:0]
		e.head = 0
	}
	e.mu.Unlock()
	if remaining > 0 {
		select {
		case e.notify <- struct{}{}:
		default:
		}
	}
	return n
}

// pending reports the number of queued deliveries (tests only).
func (e *hubEndpoint) pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue) - e.head
}

// RecvBatch implements BatchTransport.
func (e *hubEndpoint) RecvBatch(buf []Envelope) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	for {
		if n := e.pop(buf); n > 0 {
			return n, nil
		}
		select {
		case <-e.notify:
		case <-e.doneCh():
			// Drain anything that raced with close.
			if n := e.pop(buf); n > 0 {
				return n, nil
			}
			return 0, ErrClosed
		}
	}
}

// Send implements Transport as a batch-size-1 adapter over SendBatch.
func (e *hubEndpoint) Send(p *packet.Packet, multicast bool, node packet.NodeID) error {
	env := [1]Envelope{{Pkt: p, Multicast: multicast, To: node}}
	return e.SendBatch(env[:])
}

// Recv implements Transport as a batch-size-1 adapter over RecvBatch.
func (e *hubEndpoint) Recv() (*packet.Packet, packet.NodeID, error) {
	var buf [1]Envelope
	for {
		n, err := e.RecvBatch(buf[:])
		if err != nil {
			return nil, 0, err
		}
		if n == 1 {
			return buf[0].Pkt, buf[0].From, nil
		}
	}
}

func (e *hubEndpoint) Close() error {
	e.closed.Do(func() {
		close(e.doneCh())
		h := e.hub
		h.mu.Lock()
		delete(h.eps, e.id)
		h.mu.Unlock()
	})
	return nil
}
