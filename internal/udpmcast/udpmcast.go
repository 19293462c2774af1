// Package udpmcast implements the transport interfaces over real IP
// multicast using the standard net package, so the same protocol
// machines that run in the simulator drive actual UDP sockets — the
// library's equivalent of the paper's kernel deployment.
//
// The package has one endpoint type, GroupTransport, built three ways:
//
//   - NewSenderTransport opens only the unicast socket. DATA is
//     multicast from it to the group address, and receiver feedback
//     arrives on it.
//   - NewReceiverTransport adds a data socket, a multicast listener
//     joined to the group (DATA, KEEPALIVE, ...); feedback goes out and
//     PROBEs come in on the unicast socket.
//   - NewGroupTransport (Linux) binds a data port shared by many
//     groups, demultiplexed on the destination address (see group.go).
//
// The single-group constructors make their group the target of Group 0
// multicast, so single-group flows address it with Group 0. Every
// endpoint maps each peer source address it hears from to a dense node
// ID (see peerIDBase), which is what unicast envelopes are addressed
// by: a receiver learns its sender's ID from the sender's multicast,
// the sender learns receivers' IDs from their feedback.
//
// Endpoints are batch-first: SendBatch encodes a whole envelope batch
// into reused buffers and hands it to sendmmsg, and one read loop per
// socket drains up to mmsgBatch datagrams per recvmmsg into pooled
// packets on a shared inbox that RecvBatch empties (see mmsg_linux.go;
// platforms or kernels without the batch syscalls degrade to one
// datagram per syscall behind the same interface). Send/Recv remain as
// batch-size-1 adapters.
package udpmcast

import (
	"fmt"
	"net"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/packet"
	"repro/internal/transport"
)

// maxDatagram bounds received packet size (MSS + header with slack).
const maxDatagram = 64 << 10

// rxInboxDepth bounds the endpoint's pending-delivery queue, playing
// the role of a kernel socket buffer: datagrams beyond it behave like
// network loss.
const rxInboxDepth = 4096

// peerIDBase is the first node ID handed to a learned peer address.
// Port-derived local IDs occupy [0, 65535]; keeping assigned peer IDs
// above this base keeps the two spaces disjoint.
const peerIDBase packet.NodeID = 1 << 20

// sendState is the batched-send half of an endpoint: encode scratch
// and the outMsg staging list survive between batches so the steady
// state allocates nothing. Guarded by mu; SendBatch calls from
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

// groupCounters is the per-endpoint half of GroupStats, all atomics
// because read loops, SendBatch callers, and Stats readers race freely.
type groupCounters struct {
	pktsIn     atomic.Int64
	pktsOut    atomic.Int64
	inboxDrops atomic.Int64
	truncated  atomic.Int64
	sendErrors atomic.Int64
}

// GroupTransport is the package's UDP endpoint. A shard built by
// NewGroupTransport serves every flow of every group assigned to it; a
// single-group endpoint serves the flows of one group. Either way its
// fd cost is its sockets (one or two) and its goroutine cost one read
// loop per socket, independent of group count.
type GroupTransport struct {
	mconn *net.UDPConn // data socket: group traffic in; nil on a sender endpoint
	uconn *net.UDPConn // unicast socket: all traffic out, unicast traffic in
	port  int          // the data port every group of the endpoint uses
	ifidx int          // membership/egress interface index (0 = default)
	group *net.UDPAddr // Group 0 multicast target; nil on a shard

	send sendState

	qmu    sync.Mutex
	queue  []transport.Envelope // pending deliveries, queue[head:] live
	head   int
	notify chan struct{} // capacity 1: "queue may be non-empty"

	closed chan struct{}
	once   sync.Once

	mu     sync.Mutex
	ids    map[netip.AddrPort]packet.NodeID   // src addr -> learned peer ID
	addrs  map[packet.NodeID]*net.UDPAddr     // learned peer ID -> src addr
	next   packet.NodeID                      // next peer ID to assign
	groups map[transport.GroupID]*net.UDPAddr // resolved groups (joined or send-only)
	joined map[transport.GroupID]bool         // groups with live memberships

	cnt groupCounters
}

var (
	_ transport.GroupTransport = (*GroupTransport)(nil)
	_ transport.GroupReporter  = (*GroupTransport)(nil)
)

// newEndpoint wraps an endpoint's sockets; mconn may be nil. The caller
// finishes socket setup and then starts the read loops.
func newEndpoint(mconn, uconn *net.UDPConn, port int, group *net.UDPAddr) *GroupTransport {
	t := &GroupTransport{
		mconn:  mconn,
		uconn:  uconn,
		port:   port,
		group:  group,
		notify: make(chan struct{}, 1),
		closed: make(chan struct{}),
		ids:    make(map[netip.AddrPort]packet.NodeID),
		addrs:  make(map[packet.NodeID]*net.UDPAddr),
		next:   peerIDBase,
		groups: make(map[transport.GroupID]*net.UDPAddr),
		joined: make(map[transport.GroupID]bool),
	}
	t.send.bw = newBatchWriter(uconn)
	t.send.bw.errs = &t.cnt.sendErrors
	t.send.bw.enableGSO(uconn)
	return t
}

// start runs one read loop per socket; mbr reads mconn (nil without
// one). Readers are armed (GRO probe + setsockopt) by the caller rather
// than inside the goroutines, so offload state is settled when the
// constructor returns.
func (t *GroupTransport) start(mbr *batchReader) {
	if mbr != nil {
		mbr.trunc = &t.cnt.truncated
		go t.readLoop(mbr)
	}
	ubr := newBatchReaderOffload(t.uconn)
	ubr.trunc = &t.cnt.truncated
	go t.readLoop(ubr)
}

// SenderOption configures a sender endpoint.
type SenderOption func(*GroupTransport) error

// WithEgressIP pins outgoing multicast to the interface owning ip and
// enables multicast loopback — required for same-host demos, where the
// group must be reached over 127.0.0.1.
func WithEgressIP(ip net.IP) SenderOption {
	return func(t *GroupTransport) error {
		ip4 := ip.To4()
		if ip4 == nil {
			return fmt.Errorf("udpmcast: egress IP %v is not IPv4", ip)
		}
		return setEgressIP(t.uconn, ip4)
	}
}

// setEgressIP enables multicast loopback on conn and pins its outgoing
// multicast to the interface owning ip4.
func setEgressIP(conn *net.UDPConn, ip4 net.IP) error {
	rc, err := conn.SyscallConn()
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
	if serr != nil {
		return fmt.Errorf("udpmcast: set multicast egress: %w", serr)
	}
	return nil
}

// resolveGroup parses a single-group endpoint's "address:port" group.
func resolveGroup(group string) (*net.UDPAddr, error) {
	gaddr, err := net.ResolveUDPAddr("udp4", group)
	if err != nil {
		return nil, fmt.Errorf("udpmcast: resolve group: %w", err)
	}
	if !gaddr.IP.IsMulticast() {
		return nil, fmt.Errorf("udpmcast: %s is not a multicast address", gaddr.IP)
	}
	return gaddr, nil
}

// NewSenderTransport opens a sender endpoint for the given multicast
// group ("239.66.66.66:9999"): a unicast socket only, multicasting
// Group 0 envelopes to the group.
func NewSenderTransport(group string, opts ...SenderOption) (*GroupTransport, error) {
	gaddr, err := resolveGroup(group)
	if err != nil {
		return nil, err
	}
	uconn, err := net.ListenUDP("udp4", &net.UDPAddr{})
	if err != nil {
		return nil, fmt.Errorf("udpmcast: listen: %w", err)
	}
	t := newEndpoint(nil, uconn, gaddr.Port, gaddr)
	for _, o := range opts {
		if err := o(t); err != nil {
			t.Close()
			return nil, err
		}
	}
	t.start(nil)
	return t, nil
}

// NewReceiverTransport joins the multicast group on the given interface
// (nil selects the system default) and opens the unicast socket.
func NewReceiverTransport(group string, ifi *net.Interface) (*GroupTransport, error) {
	gaddr, err := resolveGroup(group)
	if err != nil {
		return nil, err
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
	t := newEndpoint(mconn, uconn, gaddr.Port, gaddr)
	if ifi != nil {
		t.ifidx = ifi.Index
	}
	t.start(newBatchReaderOffload(mconn))
	return t, nil
}

// resolve parses a group spec ("239.1.2.3" or "239.1.2.3:9999"),
// requires the endpoint's data port, and derives the GroupID from the
// IPv4 group address.
func (t *GroupTransport) resolve(group string) (transport.GroupID, *net.UDPAddr, error) {
	spec := group
	if !strings.Contains(spec, ":") {
		spec = net.JoinHostPort(spec, strconv.Itoa(t.port))
	}
	gaddr, err := net.ResolveUDPAddr("udp4", spec)
	if err != nil {
		return 0, nil, fmt.Errorf("udpmcast: resolve group: %w", err)
	}
	if gaddr.Port != t.port {
		return 0, nil, fmt.Errorf("udpmcast: group %s port %d differs from the transport's shared data port %d",
			group, gaddr.Port, t.port)
	}
	ip4 := gaddr.IP.To4()
	if ip4 == nil || !gaddr.IP.IsMulticast() {
		return 0, nil, fmt.Errorf("udpmcast: %s is not an IPv4 multicast address", gaddr.IP)
	}
	gid := transport.GroupID(uint32(ip4[0])<<24 | uint32(ip4[1])<<16 | uint32(ip4[2])<<8 | uint32(ip4[3]))
	return gid, gaddr, nil
}

// Join implements transport.GroupTransport: resolve, remember, and add
// the IGMP membership on the data socket (idempotently).
func (t *GroupTransport) Join(group string) (transport.GroupID, error) {
	gid, gaddr, err := t.resolve(group)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.joined[gid] {
		return gid, nil
	}
	if t.mconn == nil {
		return 0, fmt.Errorf("udpmcast: join %s: a sender endpoint has no data socket", group)
	}
	if err := t.membership(gaddr.IP.To4(), true); err != nil {
		return 0, fmt.Errorf("udpmcast: join %s: %w (hitting igmp_max_memberships?)", group, err)
	}
	t.groups[gid] = gaddr
	t.joined[gid] = true
	return gid, nil
}

// Register implements transport.GroupTransport: resolve the group for
// sending without a membership.
func (t *GroupTransport) Register(group string) (transport.GroupID, error) {
	gid, gaddr, err := t.resolve(group)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.groups[gid]; !ok {
		t.groups[gid] = gaddr
	}
	return gid, nil
}

// Leave implements transport.GroupTransport: drop the membership, if
// any, and forget the group, so a shard's group table holds only the
// groups in use. Leaving a never-seen group is a no-op.
func (t *GroupTransport) Leave(gid transport.GroupID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	gaddr := t.groups[gid]
	delete(t.groups, gid)
	if !t.joined[gid] {
		return nil
	}
	delete(t.joined, gid)
	return t.membership(gaddr.IP.To4(), false)
}

// readLoop drains one socket in recvmmsg batches, decodes into pooled
// packets (splitting GRO supersegments back into individual datagrams),
// learns peer source addresses, and pushes whole batches into the
// shared inbox. Arrivals on a shard's data socket are tagged with the
// multicast group they were addressed to — every segment of a
// supersegment shares one wire destination and source, so the group
// tag and peer ID are resolved once per slot.
func (t *GroupTransport) readLoop(br *batchReader) {
	batch := make([]transport.Envelope, 0, mmsgBatch)
	for {
		n, err := br.read(mmsgBatch)
		if err != nil {
			return
		}
		batch = batch[:0]
		for i := 0; i < n; i++ {
			b, src := br.datagram(i)
			var gid transport.GroupID
			if d := br.dst(i); d>>28 == 0xe { // 224.0.0.0/4
				gid = transport.GroupID(d)
			}
			var id packet.NodeID
			resolved := false
			segs := splitDatagrams(b, br.gro(i), func(d []byte) {
				// Copy-mode decode: the batch outlives the reader slots.
				p := packet.GetBuf(len(d))
				if err := packet.DecodeInto(p, d); err != nil {
					packet.Put(p)
					return
				}
				// Resolve the source ID lazily, and only when a segment
				// decodes — garbage datagrams never populate the peer
				// table.
				if !resolved {
					resolved = true
					id = t.peer(src)
				}
				batch = append(batch, transport.Envelope{Pkt: p, From: id, Group: gid})
			})
			if segs > 1 {
				countGroSplit(segs)
			}
		}
		if len(batch) > 0 {
			t.cnt.pktsIn.Add(int64(len(batch)))
			t.push(batch)
		}
	}
}

// peer returns src's node ID, assigning the next one on first sight.
func (t *GroupTransport) peer(src *net.UDPAddr) packet.NodeID {
	key := src.AddrPort()
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[key]
	if !ok {
		id = t.next
		t.next++
		t.ids[key] = id
		t.addrs[id] = cloneAddr(src)
	}
	return id
}

// push appends a decoded batch to the inbox. Overflow beyond
// rxInboxDepth behaves like network loss.
func (t *GroupTransport) push(env []transport.Envelope) {
	select {
	case <-t.closed:
		for i := range env {
			packet.Put(env[i].Pkt)
		}
		return
	default:
	}
	t.qmu.Lock()
	if t.head > 0 {
		n := copy(t.queue, t.queue[t.head:])
		for i := n; i < len(t.queue); i++ {
			t.queue[i] = transport.Envelope{}
		}
		t.queue = t.queue[:n]
		t.head = 0
	}
	space := rxInboxDepth - len(t.queue)
	for i := range env {
		if i >= space {
			packet.Put(env[i].Pkt)
			t.cnt.inboxDrops.Add(1)
			continue
		}
		t.queue = append(t.queue, env[i])
	}
	t.qmu.Unlock()
	select {
	case t.notify <- struct{}{}:
	default:
	}
}

// pop moves up to len(buf) pending envelopes into buf, re-arming the
// notify token when items remain.
func (t *GroupTransport) pop(buf []transport.Envelope) int {
	t.qmu.Lock()
	n := len(t.queue) - t.head
	if n > len(buf) {
		n = len(buf)
	}
	for i := 0; i < n; i++ {
		buf[i] = t.queue[t.head+i]
		t.queue[t.head+i] = transport.Envelope{}
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

// Local implements transport.Transport: the node ID derives from the
// unicast socket's port, so sender and receiver flows hosted in one
// session share a node-ID space under the port demultiplexer, disjoint
// from learned peer IDs (>= peerIDBase).
func (t *GroupTransport) Local() packet.NodeID {
	return packet.NodeID(t.uconn.LocalAddr().(*net.UDPAddr).Port)
}

// Addr returns the endpoint's unicast (feedback) socket address.
func (t *GroupTransport) Addr() *net.UDPAddr { return t.uconn.LocalAddr().(*net.UDPAddr) }

// Port returns the multicast data port.
func (t *GroupTransport) Port() int { return t.port }

// Sockets returns how many file descriptors the endpoint holds — for a
// shard, the O(1) half of the thousand-group claim.
func (t *GroupTransport) Sockets() int {
	if t.mconn == nil {
		return 1
	}
	return 2
}

// GroupStats snapshots the endpoint's datapath counters, implementing
// transport.GroupReporter for the control plane's per-shard metrics.
func (t *GroupTransport) GroupStats() transport.GroupStats {
	t.mu.Lock()
	joined, registered := len(t.joined), len(t.groups)
	t.mu.Unlock()
	return transport.GroupStats{
		Joined:         joined,
		Registered:     registered,
		PktsIn:         t.cnt.pktsIn.Load(),
		PktsOut:        t.cnt.pktsOut.Load(),
		InboxDrops:     t.cnt.inboxDrops.Load(),
		TruncatedDrops: t.cnt.truncated.Load(),
		SendErrors:     t.cnt.sendErrors.Load(),
	}
}

// dest resolves an envelope's destination: Group 0 multicast goes to a
// single-group endpoint's own group, other multicast to a joined or
// registered group, and unicast to a learned peer.
func (t *GroupTransport) dest(e *transport.Envelope) (*net.UDPAddr, error) {
	if e.Multicast && e.Group == 0 && t.group != nil {
		return t.group, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.Multicast {
		if a := t.groups[e.Group]; a != nil {
			return a, nil
		}
		return nil, fmt.Errorf("udpmcast: group %v neither joined nor registered", e.Group)
	}
	if a := t.addrs[e.To]; a != nil {
		return a, nil
	}
	return nil, fmt.Errorf("udpmcast: unknown node %v", e.To)
}

// SendBatch implements transport.BatchTransport. Everything leaves from
// uconn in one sendmmsg where available. Per-envelope failures (encode
// errors, unresolvable destinations) are counted and the first is
// returned after the rest of the batch is attempted.
func (t *GroupTransport) SendBatch(env []transport.Envelope) error {
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
		addr, err := t.dest(&env[i])
		if err != nil {
			countSendError(&t.cnt.sendErrors)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		msgs = append(msgs, outMsg{buf: b, addr: addr})
	}
	t.cnt.pktsOut.Add(int64(len(msgs)))
	err := t.send.bw.write(msgs)
	t.send.out = msgs[:0]
	if err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// RecvBatch implements transport.BatchTransport, draining the inbox
// fed by the read loops. Ownership of the returned packets transfers
// to the caller.
func (t *GroupTransport) RecvBatch(buf []transport.Envelope) (int, error) {
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

// Send implements transport.Transport as a batch-size-1 adapter. Note
// that per-packet sends cannot address a group (no Envelope.Group):
// multicast goes to a single-group endpoint's own group, and a shard
// multicasts through the batch interface instead.
func (t *GroupTransport) Send(p *packet.Packet, multicast bool, node packet.NodeID) error {
	env := [1]transport.Envelope{{Pkt: p, Multicast: multicast, To: node}}
	return t.SendBatch(env[:])
}

// Recv implements transport.Transport as a batch-size-1 adapter.
func (t *GroupTransport) Recv() (*packet.Packet, packet.NodeID, error) {
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
func (t *GroupTransport) Close() error {
	t.once.Do(func() { close(t.closed) })
	var err error
	if t.mconn != nil {
		err = t.mconn.Close()
	}
	if e := t.uconn.Close(); err == nil {
		err = e
	}
	return err
}
