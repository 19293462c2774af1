// Package udpmcast implements the transport interfaces over real IP
// multicast using the standard net package, so the same protocol
// machines that run in the simulator drive actual UDP sockets — the
// library's equivalent of the paper's kernel deployment.
//
// Topology: the sender owns one UDP socket from which it multicasts DATA
// to the group address and unicasts PROBE/JOIN_RESPONSE/... to
// receivers; receivers join the group on a multicast listener and send
// feedback from a second unicast socket, whose source address is what
// the sender's membership table stores (mapped to a dense NodeID).
//
// Since Transport v2 both endpoints are batch-first: SendBatch encodes
// a whole envelope batch into reused buffers and hands it to sendmmsg,
// and RecvBatch drains up to mmsgBatch datagrams per recvmmsg into
// pooled packets (see mmsg_linux.go; platforms or kernels without the
// batch syscalls degrade to one datagram per syscall behind the same
// interface). Send/Recv remain as batch-size-1 adapters.
package udpmcast

import (
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"syscall"

	"repro/internal/packet"
	"repro/internal/transport"
)

// maxDatagram bounds received packet size (MSS + header with slack).
const maxDatagram = 64 << 10

// rxInboxDepth bounds the receiver's pending-delivery queue, playing
// the role of a kernel socket buffer: datagrams beyond it behave like
// network loss.
const rxInboxDepth = 4096

// peerIDBase is the first node ID handed to a learned peer address.
// Port-derived local IDs occupy [0, 65535]; keeping assigned peer IDs
// above this base keeps the two spaces disjoint.
const peerIDBase packet.NodeID = 1 << 20

// sendState is the shared batched-send half of both endpoints: encode
// scratch and the outMsg staging list survive between batches so the
// steady state allocates nothing. Guarded by mu; SendBatch calls from
// concurrent flows serialize here, which also serializes sendmmsg on
// the socket.
type sendState struct {
	mu  sync.Mutex
	bw  *batchWriter
	enc [][]byte
	out []outMsg
}

// encBuf returns the i-th reusable encode buffer, truncated to zero.
func (s *sendState) encBuf(i int) []byte {
	for len(s.enc) <= i {
		s.enc = append(s.enc, nil)
	}
	return s.enc[i][:0]
}

// cloneAddr deep-copies a source address the batch reader returned: the
// reader rewrites its slots' addresses, IP bytes included, on every read.
func cloneAddr(src *net.UDPAddr) *net.UDPAddr {
	a := *src
	a.IP = slices.Clone(src.IP)
	return &a
}

// SenderTransport is the sender-side UDP endpoint.
type SenderTransport struct {
	conn  *net.UDPConn
	group *net.UDPAddr

	send   sendState
	recvMu sync.Mutex // serializes RecvBatch over br and pend
	br     *batchReader
	// pend holds decoded envelopes beyond the caller's buffer capacity:
	// one GRO supersegment can split into more packets than the caller
	// asked for. Drained before the next read, so borrowed payloads
	// (aliasing reader slots) stay valid.
	pend []transport.Envelope

	mu    sync.Mutex
	ids   map[netip.AddrPort]packet.NodeID
	addrs map[packet.NodeID]*net.UDPAddr
	next  packet.NodeID
}

var (
	_ transport.Transport      = (*SenderTransport)(nil)
	_ transport.BatchTransport = (*SenderTransport)(nil)
)

// SenderOption configures a SenderTransport.
type SenderOption func(*SenderTransport) error

// WithEgressIP pins outgoing multicast to the interface owning ip and
// enables multicast loopback — required for same-host demos, where the
// group must be reached over 127.0.0.1.
func WithEgressIP(ip net.IP) SenderOption {
	return func(t *SenderTransport) error {
		ip4 := ip.To4()
		if ip4 == nil {
			return fmt.Errorf("udpmcast: egress IP %v is not IPv4", ip)
		}
		rc, err := t.conn.SyscallConn()
		if err != nil {
			return err
		}
		var serr error
		err = rc.Control(func(fd uintptr) {
			if e := syscall.SetsockoptInt(int(fd), syscall.IPPROTO_IP, syscall.IP_MULTICAST_LOOP, 1); e != nil {
				serr = e
				return
			}
			serr = syscall.SetsockoptInet4Addr(int(fd), syscall.IPPROTO_IP, syscall.IP_MULTICAST_IF, [4]byte(ip4))
		})
		if err != nil {
			return err
		}
		return serr
	}
}

// NewSenderTransport opens a sender endpoint for the given multicast
// group ("239.66.66.66:9999").
func NewSenderTransport(group string, opts ...SenderOption) (*SenderTransport, error) {
	gaddr, err := net.ResolveUDPAddr("udp4", group)
	if err != nil {
		return nil, fmt.Errorf("udpmcast: resolve group: %w", err)
	}
	if !gaddr.IP.IsMulticast() {
		return nil, fmt.Errorf("udpmcast: %s is not a multicast address", gaddr.IP)
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{})
	if err != nil {
		return nil, fmt.Errorf("udpmcast: listen: %w", err)
	}
	t := &SenderTransport{
		conn:  conn,
		group: gaddr,
		br:    newBatchReaderOffload(conn),
		ids:   make(map[netip.AddrPort]packet.NodeID),
		addrs: make(map[packet.NodeID]*net.UDPAddr),
		next:  peerIDBase,
	}
	t.send.bw = newBatchWriter(conn)
	t.send.bw.enableGSO(conn)
	for _, o := range opts {
		if err := o(t); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return t, nil
}

// Local implements transport.Transport. Like ReceiverTransport, the
// node ID derives from the unicast socket's port, so sender and
// receiver flows hosted in one session share a node-ID space under the
// port demultiplexer. Peer IDs assigned by Recv live above peerIDBase
// and can never collide with a port-derived local ID.
func (t *SenderTransport) Local() packet.NodeID {
	return packet.NodeID(t.conn.LocalAddr().(*net.UDPAddr).Port)
}

// Addr returns the sender's unicast socket address.
func (t *SenderTransport) Addr() *net.UDPAddr { return t.conn.LocalAddr().(*net.UDPAddr) }

// SendBatch implements transport.BatchTransport: the whole batch is
// encoded into reused buffers and handed to one sendmmsg (where
// available). Unknown unicast nodes and encode failures surface as the
// first error after the rest of the batch is attempted.
func (t *SenderTransport) SendBatch(env []transport.Envelope) error {
	t.send.mu.Lock()
	defer t.send.mu.Unlock()
	msgs := t.send.out[:0]
	var firstErr error
	for i := range env {
		b, err := env[i].Pkt.Encode(t.send.encBuf(i))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		t.send.enc[i] = b
		addr := t.group
		if !env[i].Multicast {
			t.mu.Lock()
			addr = t.addrs[env[i].To]
			t.mu.Unlock()
			if addr == nil {
				countSendError(nil)
				if firstErr == nil {
					firstErr = fmt.Errorf("udpmcast: unknown node %v", env[i].To)
				}
				continue
			}
		}
		msgs = append(msgs, outMsg{buf: b, addr: addr})
	}
	err := t.send.bw.write(msgs)
	t.send.out = msgs[:0]
	if err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// RecvBatch implements transport.BatchTransport: it blocks for receiver
// feedback on the unicast socket, draining up to one recvmmsg batch of
// datagrams into pooled packets and assigning dense node IDs to new
// source addresses. GRO supersegments are split back into individual
// packets; the overflow past len(out) is parked on t.pend and returned
// first next call. Ownership of the returned packets transfers to the
// caller.
func (t *SenderTransport) RecvBatch(out []transport.Envelope) (int, error) {
	if len(out) == 0 {
		return 0, nil
	}
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	if len(t.pend) > 0 {
		k := copy(out, t.pend)
		rem := copy(t.pend, t.pend[k:])
		for i := rem; i < len(t.pend); i++ {
			t.pend[i] = transport.Envelope{}
		}
		t.pend = t.pend[:rem]
		return k, nil
	}
	max := len(out)
	if max > mmsgBatch {
		max = mmsgBatch
	}
	for {
		n, err := t.br.read(max)
		if err != nil {
			return 0, transport.ErrClosed
		}
		k := 0
		for i := 0; i < n; i++ {
			b, src := t.br.datagram(i)
			// Resolve the source ID lazily, once per slot, and only when
			// at least one segment decodes — garbage datagrams never
			// populate the peer table.
			var id packet.NodeID
			resolved := false
			segs := splitDatagrams(b, t.br.gro(i), func(d []byte) {
				p := transport.GetPacket()
				// Zero-copy decode: the payload aliases the reader's fixed
				// datagram slot, which stays untouched until the next read
				// — and reads are serialized under recvMu, after the
				// session's demux loop has consumed (and released) the
				// previous batch (pend overflow is drained before reading
				// again). Feedback packets are header-only in practice,
				// but the borrow keeps even payload-carrying ones
				// (local-recovery repairs) copy-free.
				if err := packet.DecodeBorrow(p, d); err != nil {
					transport.PutPacket(p) // garbage or corrupted datagram
					return
				}
				if !resolved {
					resolved = true
					key := src.AddrPort()
					t.mu.Lock()
					var ok bool
					if id, ok = t.ids[key]; !ok {
						id = t.next
						t.next++
						t.ids[key] = id
						t.addrs[id] = cloneAddr(src)
					}
					t.mu.Unlock()
				}
				env := transport.Envelope{Pkt: p, From: id}
				if k < len(out) {
					out[k] = env
					k++
				} else {
					t.pend = append(t.pend, env)
				}
			})
			if segs > 1 {
				countGroSplit(segs)
			}
		}
		if k > 0 {
			return k, nil
		}
	}
}

// Send implements transport.Transport as a batch-size-1 adapter.
func (t *SenderTransport) Send(p *packet.Packet, multicast bool, node packet.NodeID) error {
	env := [1]transport.Envelope{{Pkt: p, Multicast: multicast, To: node}}
	return t.SendBatch(env[:])
}

// Recv implements transport.Transport as a batch-size-1 adapter.
func (t *SenderTransport) Recv() (*packet.Packet, packet.NodeID, error) {
	var buf [1]transport.Envelope
	for {
		n, err := t.RecvBatch(buf[:])
		if err != nil {
			return nil, 0, err
		}
		if n == 1 {
			return buf[0].Pkt, buf[0].From, nil
		}
	}
}

// Close implements transport.Transport.
func (t *SenderTransport) Close() error { return t.conn.Close() }

// ReceiverTransport is the receiver-side UDP endpoint.
type ReceiverTransport struct {
	mconn *net.UDPConn // multicast listener (DATA, KEEPALIVE, ...)
	uconn *net.UDPConn // unicast socket (feedback out, PROBE in)
	group *net.UDPAddr // group address for local-recovery multicast

	send sendState

	qmu    sync.Mutex
	queue  []*packet.Packet // pending deliveries, queue[head:] live
	head   int
	notify chan struct{} // capacity 1: "queue may be non-empty"

	closed chan struct{}
	once   sync.Once

	mu     sync.Mutex
	sender *net.UDPAddr
}

var (
	_ transport.Transport      = (*ReceiverTransport)(nil)
	_ transport.BatchTransport = (*ReceiverTransport)(nil)
)

// NewReceiverTransport joins the multicast group on the given interface
// (nil selects the system default) and opens the feedback socket.
func NewReceiverTransport(group string, ifi *net.Interface) (*ReceiverTransport, error) {
	gaddr, err := net.ResolveUDPAddr("udp4", group)
	if err != nil {
		return nil, fmt.Errorf("udpmcast: resolve group: %w", err)
	}
	mconn, err := net.ListenMulticastUDP("udp4", ifi, gaddr)
	if err != nil {
		return nil, fmt.Errorf("udpmcast: join group: %w", err)
	}
	uconn, err := net.ListenUDP("udp4", &net.UDPAddr{})
	if err != nil {
		mconn.Close()
		return nil, fmt.Errorf("udpmcast: listen unicast: %w", err)
	}
	t := &ReceiverTransport{
		mconn:  mconn,
		uconn:  uconn,
		group:  gaddr,
		notify: make(chan struct{}, 1),
		closed: make(chan struct{}),
	}
	t.send.bw = newBatchWriter(uconn)
	t.send.bw.enableGSO(uconn)
	// Readers are armed (GRO probe + setsockopt) here rather than inside
	// the goroutines, so offload state is settled when the constructor
	// returns.
	go t.readLoop(newBatchReaderOffload(mconn), true)
	go t.readLoop(newBatchReaderOffload(uconn), false)
	return t, nil
}

// readLoop drains one socket in recvmmsg batches, decodes into pooled
// packets (splitting GRO supersegments back into individual datagrams),
// and pushes whole batches into the shared inbox under one lock
// acquisition.
func (t *ReceiverTransport) readLoop(br *batchReader, learnSender bool) {
	batch := make([]*packet.Packet, 0, mmsgBatch)
	for {
		n, err := br.read(mmsgBatch)
		if err != nil {
			return
		}
		batch = batch[:0]
		for i := 0; i < n; i++ {
			b, src := br.datagram(i)
			before := len(batch)
			segs := splitDatagrams(b, br.gro(i), func(d []byte) {
				// Copy-mode decode (the batch outlives the reader slots
				// here), so draw a packet that already owns a backing
				// array.
				p := packet.GetBuf(len(d))
				if err := packet.DecodeInto(p, d); err != nil {
					transport.PutPacket(p)
					return
				}
				batch = append(batch, p)
			})
			if segs > 1 {
				countGroSplit(segs)
			}
			// Learn the sender's address only from datagrams that carried
			// at least one valid packet, as the pre-offload path did.
			if learnSender && len(batch) > before {
				t.mu.Lock()
				if t.sender == nil {
					t.sender = cloneAddr(src)
				}
				t.mu.Unlock()
			}
		}
		if len(batch) > 0 {
			t.push(batch)
		}
	}
}

// push appends a decoded batch to the inbox. Overflow beyond
// rxInboxDepth behaves like network loss, and the dropped packets go
// straight back to the pool.
func (t *ReceiverTransport) push(pkts []*packet.Packet) {
	select {
	case <-t.closed:
		for _, p := range pkts {
			transport.PutPacket(p)
		}
		return
	default:
	}
	t.qmu.Lock()
	if t.head > 0 {
		n := copy(t.queue, t.queue[t.head:])
		for i := n; i < len(t.queue); i++ {
			t.queue[i] = nil
		}
		t.queue = t.queue[:n]
		t.head = 0
	}
	space := rxInboxDepth - len(t.queue)
	for i, p := range pkts {
		if i >= space {
			transport.PutPacket(p)
			continue
		}
		t.queue = append(t.queue, p)
	}
	t.qmu.Unlock()
	select {
	case t.notify <- struct{}{}:
	default:
	}
}

// pop moves up to len(buf) pending packets into buf, re-arming the
// notify token when items remain.
func (t *ReceiverTransport) pop(buf []transport.Envelope) int {
	t.qmu.Lock()
	n := len(t.queue) - t.head
	if n > len(buf) {
		n = len(buf)
	}
	for i := 0; i < n; i++ {
		buf[i] = transport.Envelope{Pkt: t.queue[t.head+i]}
		t.queue[t.head+i] = nil
	}
	t.head += n
	remaining := len(t.queue) - t.head
	if remaining == 0 {
		t.queue = t.queue[:0]
		t.head = 0
	}
	t.qmu.Unlock()
	if remaining > 0 {
		select {
		case t.notify <- struct{}{}:
		default:
		}
	}
	return n
}

// Local implements transport.Transport. Receivers identify themselves to
// the protocol by their feedback port (unique per host in practice); the
// sender side assigns its own dense IDs from source addresses, so this
// value is only cosmetic.
func (t *ReceiverTransport) Local() packet.NodeID {
	return packet.NodeID(t.uconn.LocalAddr().(*net.UDPAddr).Port)
}

// SendBatch implements transport.BatchTransport: unicast feedback goes
// to the sender, whose address is learned from the first multicast
// packet; multicast (local-recovery NAKs and repairs) goes to the group
// address. The whole batch leaves in one sendmmsg where available.
func (t *ReceiverTransport) SendBatch(env []transport.Envelope) error {
	t.mu.Lock()
	sender := t.sender
	t.mu.Unlock()
	t.send.mu.Lock()
	defer t.send.mu.Unlock()
	msgs := t.send.out[:0]
	var firstErr error
	for i := range env {
		b, err := env[i].Pkt.Encode(t.send.encBuf(i))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		t.send.enc[i] = b
		addr := t.group
		if !env[i].Multicast {
			if sender == nil {
				countSendError(nil)
				if firstErr == nil {
					firstErr = fmt.Errorf("udpmcast: sender address not yet known")
				}
				continue
			}
			addr = sender
		}
		msgs = append(msgs, outMsg{buf: b, addr: addr})
	}
	err := t.send.bw.write(msgs)
	t.send.out = msgs[:0]
	if err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// RecvBatch implements transport.BatchTransport, draining the inbox
// fed by both read loops. Ownership of the returned packets transfers
// to the caller. The source node ID is always 0: a receiver's only
// peers are the sender and the anonymous group.
func (t *ReceiverTransport) RecvBatch(buf []transport.Envelope) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	for {
		if n := t.pop(buf); n > 0 {
			return n, nil
		}
		select {
		case <-t.notify:
		case <-t.closed:
			// Drain anything that raced with close.
			if n := t.pop(buf); n > 0 {
				return n, nil
			}
			return 0, transport.ErrClosed
		}
	}
}

// Send implements transport.Transport as a batch-size-1 adapter.
func (t *ReceiverTransport) Send(p *packet.Packet, multicast bool, node packet.NodeID) error {
	env := [1]transport.Envelope{{Pkt: p, Multicast: multicast, To: node}}
	return t.SendBatch(env[:])
}

// Recv implements transport.Transport as a batch-size-1 adapter.
func (t *ReceiverTransport) Recv() (*packet.Packet, packet.NodeID, error) {
	var buf [1]transport.Envelope
	for {
		n, err := t.RecvBatch(buf[:])
		if err != nil {
			return nil, 0, err
		}
		if n == 1 {
			return buf[0].Pkt, buf[0].From, nil
		}
	}
}

// Close implements transport.Transport.
func (t *ReceiverTransport) Close() error {
	t.once.Do(func() { close(t.closed) })
	err1 := t.mconn.Close()
	err2 := t.uconn.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
