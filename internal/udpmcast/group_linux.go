//go:build linux && (amd64 || arm64)

// GroupTransport implementation: one socket pair hosting many
// multicast groups, demultiplexed on the kernel-reported destination
// address (IP_PKTINFO). See group.go for the design overview.
package udpmcast

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/packet"
	"repro/internal/transport"
)

// ipMulticastAll is the IP_MULTICAST_ALL socket option (absent from the
// syscall package). Linux defaults it to 1, which delivers traffic for
// ANY group any socket on the host joined to every socket bound to the
// group's port — clearing it confines mconn to its own memberships,
// which is what makes several sharded transports on one host sane.
const ipMulticastAll = 49

// groupCounters is the per-transport half of GroupStats, all atomics
// because read loops, SendBatch callers, and Stats readers race freely.
type groupCounters struct {
	pktsIn     atomic.Int64
	pktsOut    atomic.Int64
	inboxDrops atomic.Int64
	truncated  atomic.Int64
	sendErrors atomic.Int64
}

// GroupTransport is the shared-socket many-group endpoint. One instance
// serves every flow of every group assigned to its shard; fd cost is
// exactly two sockets and goroutine cost exactly two read loops,
// independent of group count.
type GroupTransport struct {
	mconn *net.UDPConn // shared data port: memberships + group traffic in
	uconn *net.UDPConn // ephemeral port: all traffic out, unicast feedback in
	port  int          // the shared data port
	ifidx int          // membership/egress interface index (0 = default)

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
	_ transport.Transport      = (*GroupTransport)(nil)
	_ transport.BatchTransport = (*GroupTransport)(nil)
	_ transport.GroupTransport = (*GroupTransport)(nil)
	_ transport.GroupReporter  = (*GroupTransport)(nil)
)

// NewGroupTransport opens the shared socket pair for one shard. No
// groups are joined yet; flows join (receive) or register (send-only)
// groups afterwards.
func NewGroupTransport(cfg GroupConfig) (*GroupTransport, error) {
	if cfg.Port <= 0 {
		return nil, fmt.Errorf("udpmcast: group transport needs a data port, got %d", cfg.Port)
	}
	ifidx := 0
	var egress net.IP
	switch {
	case cfg.Loopback:
		lo, err := loopbackIndex()
		if err != nil {
			return nil, err
		}
		ifidx = lo
		egress = net.IPv4(127, 0, 0, 1)
	case cfg.Interface != nil:
		ifidx = cfg.Interface.Index
	}

	mconn, err := listenShared(cfg.Port)
	if err != nil {
		return nil, err
	}
	uconn, err := net.ListenUDP("udp4", &net.UDPAddr{})
	if err != nil {
		mconn.Close()
		return nil, fmt.Errorf("udpmcast: listen unicast: %w", err)
	}
	t := &GroupTransport{
		mconn:  mconn,
		uconn:  uconn,
		port:   cfg.Port,
		ifidx:  ifidx,
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
	if err := t.setupEgress(egress); err != nil {
		t.Close()
		return nil, err
	}
	// Readers are armed (GRO probe + setsockopt) here rather than inside
	// the goroutines, so offload state is settled when the constructor
	// returns. The mconn reader additionally recovers destination
	// addresses (IP_PKTINFO) for the group demux.
	mbr := newBatchReaderDst(mconn)
	mbr.trunc = &t.cnt.truncated
	ubr := newBatchReaderOffload(uconn)
	ubr.trunc = &t.cnt.truncated
	go t.readLoop(mbr, true)
	go t.readLoop(ubr, false)
	return t, nil
}

// listenShared binds the shared data port with SO_REUSEADDR (several
// shards or daemons may share a host) and arms IP_PKTINFO +
// !IP_MULTICAST_ALL after the bind.
func listenShared(port int) (*net.UDPConn, error) {
	lc := net.ListenConfig{Control: func(network, address string, c syscall.RawConn) error {
		var serr error
		err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
		})
		if err != nil {
			return err
		}
		return serr
	}}
	pc, err := lc.ListenPacket(context.Background(), "udp4", net.JoinHostPort("0.0.0.0", strconv.Itoa(port)))
	if err != nil {
		return nil, fmt.Errorf("udpmcast: listen shared port %d: %w", port, err)
	}
	conn := pc.(*net.UDPConn)
	rc, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, err
	}
	var serr error
	err = rc.Control(func(fd uintptr) {
		if e := syscall.SetsockoptInt(int(fd), syscall.IPPROTO_IP, syscall.IP_PKTINFO, 1); e != nil {
			serr = fmt.Errorf("udpmcast: enable IP_PKTINFO: %w", e)
			return
		}
		if e := syscall.SetsockoptInt(int(fd), syscall.IPPROTO_IP, ipMulticastAll, 0); e != nil {
			serr = fmt.Errorf("udpmcast: clear IP_MULTICAST_ALL: %w", e)
		}
	})
	if err == nil {
		err = serr
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// setupEgress pins outgoing multicast on uconn to the loopback address
// (with loop enabled) or the configured interface.
func (t *GroupTransport) setupEgress(egress net.IP) error {
	if egress == nil && t.ifidx == 0 {
		return nil
	}
	rc, err := t.uconn.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	err = rc.Control(func(fd uintptr) {
		if egress != nil {
			if e := syscall.SetsockoptInt(int(fd), syscall.IPPROTO_IP, syscall.IP_MULTICAST_LOOP, 1); e != nil {
				serr = e
				return
			}
			serr = syscall.SetsockoptInet4Addr(int(fd), syscall.IPPROTO_IP, syscall.IP_MULTICAST_IF, [4]byte(egress.To4()))
			return
		}
		serr = syscall.SetsockoptIPMreqn(int(fd), syscall.IPPROTO_IP, syscall.IP_MULTICAST_IF,
			&syscall.IPMreqn{Ifindex: int32(t.ifidx)})
	})
	if err != nil {
		return err
	}
	if serr != nil {
		return fmt.Errorf("udpmcast: set multicast egress: %w", serr)
	}
	return nil
}

// loopbackIndex finds the loopback interface's index.
func loopbackIndex() (int, error) {
	ifs, err := net.Interfaces()
	if err != nil {
		return 0, err
	}
	for _, ifi := range ifs {
		if ifi.Flags&net.FlagLoopback != 0 {
			return ifi.Index, nil
		}
	}
	return 0, fmt.Errorf("udpmcast: no loopback interface")
}

// resolve parses a group spec ("239.1.2.3" or "239.1.2.3:9999"),
// requires the transport's shared data port, and derives the GroupID
// from the IPv4 group address.
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
// the IGMP membership (idempotently).
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
	if err := t.membership(gaddr.IP.To4(), syscall.IP_ADD_MEMBERSHIP); err != nil {
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

// Leave implements transport.GroupTransport: drop the membership. The
// group stays resolved for sending; leaving a group that was only
// registered (or never seen) is a no-op.
func (t *GroupTransport) Leave(gid transport.GroupID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.joined[gid] {
		return nil
	}
	gaddr := t.groups[gid]
	delete(t.joined, gid)
	return t.membership(gaddr.IP.To4(), syscall.IP_DROP_MEMBERSHIP)
}

// membership adds or drops one IGMP membership on mconn. Caller holds
// t.mu (which serializes membership changes).
func (t *GroupTransport) membership(ip4 net.IP, op int) error {
	rc, err := t.mconn.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	err = rc.Control(func(fd uintptr) {
		mreq := &syscall.IPMreqn{
			Multiaddr: [4]byte(ip4),
			Ifindex:   int32(t.ifidx),
		}
		serr = syscall.SetsockoptIPMreqn(int(fd), syscall.IPPROTO_IP, op, mreq)
	})
	if err != nil {
		return err
	}
	return serr
}

// readLoop drains one socket in recvmmsg batches, decodes into pooled
// packets (splitting GRO supersegments back into individual datagrams),
// learns peer source addresses, and pushes whole batches into the
// shared inbox. The mconn loop (wantDst) tags each envelope with the
// multicast group it was addressed to — every segment of a
// supersegment shares one wire destination and source, so the group
// tag and peer ID are resolved once per slot.
func (t *GroupTransport) readLoop(br *batchReader, wantDst bool) {
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
			if wantDst {
				if d := br.dst(i); d>>28 == 0xe { // 224.0.0.0/4
					gid = transport.GroupID(d)
				}
			}
			var id packet.NodeID
			resolved := false
			segs := splitDatagrams(b, br.gro(i), func(d []byte) {
				// Copy-mode decode: the batch outlives the reader slots.
				p := packet.GetBuf(len(d))
				if err := packet.DecodeInto(p, d); err != nil {
					transport.PutPacket(p)
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

// push appends a decoded batch to the inbox. Overflow beyond
// rxInboxDepth behaves like network loss.
func (t *GroupTransport) push(env []transport.Envelope) {
	select {
	case <-t.closed:
		for i := range env {
			transport.PutPacket(env[i].Pkt)
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
			transport.PutPacket(env[i].Pkt)
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
// unicast socket's port, like the single-group transports, keeping
// local IDs disjoint from learned peer IDs (>= peerIDBase).
func (t *GroupTransport) Local() packet.NodeID {
	return packet.NodeID(t.uconn.LocalAddr().(*net.UDPAddr).Port)
}

// Addr returns the transport's unicast (feedback) socket address.
func (t *GroupTransport) Addr() *net.UDPAddr { return t.uconn.LocalAddr().(*net.UDPAddr) }

// Port returns the shared multicast data port.
func (t *GroupTransport) Port() int { return t.port }

// Sockets returns how many file descriptors the transport holds — the
// O(1) half of the thousand-group claim.
func (t *GroupTransport) Sockets() int { return 2 }

// GroupStats snapshots the transport's datapath counters, implementing
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

// SendBatch implements transport.BatchTransport. Multicast envelopes
// are addressed by Envelope.Group (which must be joined or registered);
// unicast goes to the learned peer address. Everything leaves from
// uconn in one sendmmsg where available. Per-envelope failures are
// counted and the first is returned after the rest of the batch is
// attempted.
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
		var addr *net.UDPAddr
		if env[i].Multicast {
			t.mu.Lock()
			addr = t.groups[env[i].Group]
			t.mu.Unlock()
			if addr == nil {
				countSendError(&t.cnt.sendErrors)
				if firstErr == nil {
					firstErr = fmt.Errorf("udpmcast: group %v neither joined nor registered", env[i].Group)
				}
				continue
			}
		} else {
			t.mu.Lock()
			addr = t.addrs[env[i].To]
			t.mu.Unlock()
			if addr == nil {
				countSendError(&t.cnt.sendErrors)
				if firstErr == nil {
					firstErr = fmt.Errorf("udpmcast: unknown node %v", env[i].To)
				}
				continue
			}
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
// fed by both read loops. Ownership of the returned packets transfers
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
// that per-packet sends cannot address a group (no Envelope.Group);
// multicast through the batch interface instead.
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
	err1 := t.mconn.Close()
	err2 := t.uconn.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
