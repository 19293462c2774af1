package main

import (
	"sync"
	"sync/atomic"

	"repro/internal/packet"
	"repro/internal/transport"
)

// ioTally accumulates what the timing wrapper sees at the transport
// boundary, across every wrapped transport of a run.
type ioTally struct {
	sendBatches, sendEnvs, sendNs, wireBytes atomic.Int64
	recvBatches, recvEnvs, recvNs            atomic.Int64
	// recvGapNs is the time receive loops spent between RecvBatch
	// calls: handling what the last batch delivered.
	recvGapNs  atomic.Int64
	joinErrors atomic.Int64
}

// portXfer maps an H-RMC header port to the transfer that owns it, so
// transport spans can carry the transfer id. Ports are unique among
// concurrently open flows of a run.
type portXfer [1 << 16]atomic.Int32

func (p *portXfer) of(port uint16) int32 { return p[port].Load() }

// timed is the timing wrapper around a transport handed to the session:
// every SendBatch and RecvBatch becomes a span and feeds the tally. It
// exposes exactly the optional interfaces of the transport it wraps
// (see wrap), so the session's filter pushdown and the sharded dialer's
// group demux see the same program with and without tracing.
type timed struct {
	inner transport.Transport
	bt    transport.BatchTransport
	tr    *tracer
	tally *ioTally
	ports *portXfer
	// parents maps a group name to the control.Admit span that is
	// joining or registering it, so a Join span gets its parent.
	parents *sync.Map
	// lastRecv is when the previous RecvBatch returned; only the
	// session's one receive loop per transport touches it.
	lastRecv int64
}

func (t *timed) SendBatch(env []transport.Envelope) error {
	var wire int64
	for i := range env {
		wire += int64(packet.HeaderSize + len(env[i].Pkt.Payload))
	}
	xfer := t.xferOf(env, true)
	id, start := t.tr.begin()
	err := t.bt.SendBatch(env)
	t.tally.sendNs.Add(t.tr.end(id, kSendBatch, xfer, 0, start))
	t.tally.sendBatches.Add(1)
	t.tally.sendEnvs.Add(int64(len(env)))
	t.tally.wireBytes.Add(wire)
	return err
}

func (t *timed) RecvBatch(buf []transport.Envelope) (int, error) {
	id, start := t.tr.begin()
	if t.lastRecv > 0 {
		t.tally.recvGapNs.Add(start - t.lastRecv)
	}
	n, err := t.bt.RecvBatch(buf)
	xfer := t.xferOf(buf[:n], false)
	d := t.tr.end(id, kRecvBatch, xfer, 0, start)
	t.tally.recvNs.Add(d)
	t.lastRecv = start + d
	if n > 0 {
		t.tally.recvBatches.Add(1)
		t.tally.recvEnvs.Add(int64(n))
	}
	return n, err
}

// xferOf names the transfer a batch belongs to, or 0 when it mixes
// flows (or carries none).
func (t *timed) xferOf(env []transport.Envelope, outbound bool) int32 {
	var x int32
	for i := range env {
		port := env[i].Pkt.DstPort
		if outbound {
			port = env[i].Pkt.SrcPort
		}
		y := t.ports.of(port)
		if i > 0 && y != x {
			return 0
		}
		x = y
	}
	return x
}

// Send and Recv are the per-packet compatibility surface; the session
// never calls them, so they pass through untimed.
func (t *timed) Send(p *packet.Packet, multicast bool, node packet.NodeID) error {
	return t.inner.Send(p, multicast, node)
}
func (t *timed) Recv() (*packet.Packet, packet.NodeID, error) { return t.inner.Recv() }
func (t *timed) Local() packet.NodeID                         { return t.inner.Local() }
func (t *timed) Close() error                                 { return t.inner.Close() }

// filtered passes FilteredTransport through.
type filtered struct {
	*timed
	f transport.FilteredTransport
}

func (t *filtered) SetInboundFilter(fn transport.InboundFilterFunc) { t.f.SetInboundFilter(fn) }

// grouped passes GroupTransport and GroupReporter through, timing Join
// and Register (the membership calls admission makes).
type grouped struct {
	*timed
	g transport.GroupTransport
}

func (t *grouped) Join(group string) (transport.GroupID, error) {
	return t.member(group, kJoin, t.g.Join)
}

func (t *grouped) Register(group string) (transport.GroupID, error) {
	return t.member(group, kRegister, t.g.Register)
}

func (t *grouped) member(group string, k kind, call func(string) (transport.GroupID, error)) (transport.GroupID, error) {
	var ctx admitCtx
	if v, ok := t.parents.Load(group); ok {
		ctx = v.(admitCtx)
	}
	id, start := t.tr.begin()
	gid, err := call(group)
	t.tr.end(id, k, ctx.xfer, ctx.span, start)
	if err != nil && k == kJoin {
		t.tally.joinErrors.Add(1)
	}
	return gid, err
}

func (t *grouped) Leave(gid transport.GroupID) error { return t.g.Leave(gid) }

// GroupStats forwards to the wrapped transport; one that cannot report
// yields zero stats, as control.ShardedDialer treats it.
func (t *grouped) GroupStats() transport.GroupStats {
	if r, ok := t.g.(transport.GroupReporter); ok {
		return r.GroupStats()
	}
	return transport.GroupStats{}
}

// filteredGroup passes both.
type filteredGroup struct {
	*grouped
	f transport.FilteredTransport
}

func (t *filteredGroup) SetInboundFilter(fn transport.InboundFilterFunc) { t.f.SetInboundFilter(fn) }

// admitCtx is the parent of the membership calls one admission makes.
type admitCtx struct {
	span uint64
	xfer int32
}

// wrap returns tr behind the timing wrapper, with the same optional
// interfaces tr has.
func wrap(tr transport.Transport, tc *tracer, tally *ioTally, ports *portXfer, parents *sync.Map) transport.Transport {
	base := &timed{inner: tr, bt: transport.Batched(tr), tr: tc, tally: tally, ports: ports, parents: parents}
	f, isF := tr.(transport.FilteredTransport)
	g, isG := tr.(transport.GroupTransport)
	switch {
	case isF && isG:
		return &filteredGroup{grouped: &grouped{timed: base, g: g}, f: f}
	case isG:
		return &grouped{timed: base, g: g}
	case isF:
		return &filtered{timed: base, f: f}
	default:
		return base
	}
}
