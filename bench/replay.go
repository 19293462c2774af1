package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/packet"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/session"
	"repro/internal/sim"
)

// The sans-I/O machine replay: sender.New and three receiver.New driven
// on a virtual clock over the start of the bulk object, with
// Packet.Encode and packet.DecodeBorrow between them and no transport
// or session. Each batch of calls is timed, so the machines' and the
// codec's own CPU cost per packet reads out directly — the one view of
// them the live workloads cannot give from outside the program. It runs
// at MSS 1400 and at a 64-byte payload: the difference separates the
// per-packet cost from the per-byte cost (the checksum).
const (
	replayReceivers = 3
	replayStep      = 10 * time.Millisecond // the session's tick
	replayMaxSteps  = 200000
	replaySender    = packet.NodeID(1000)
)

type replaySize struct {
	mss    int
	bytes  int
	suffix string
}

var replaySizes = []replaySize{{1400, 64 << 20, ""}, {64, 4 << 20, "_64B"}}

// replayCost is the CPU time each layer spent and the packets it
// handled.
type replayCost struct {
	enc, dec, snd, rcv       time.Duration
	nEnc, nDec, nSnd, nRcvPk int64
}

func replay(seed int64) ([]metric, error) {
	var out []metric
	for _, sz := range replaySizes {
		c, err := replayOnce(seed, sz)
		if err != nil {
			return out, fmt.Errorf("mss %d: %w", sz.mss, err)
		}
		ns := func(d time.Duration, n int64) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
		out = append(out,
			metric{"packet.encode_ns_per_pkt" + sz.suffix, ns(c.enc, c.nEnc), "ns"},
			metric{"packet.decode_ns_per_pkt" + sz.suffix, ns(c.dec, c.nDec), "ns"},
			metric{"sender.ns_per_pkt" + sz.suffix, ns(c.snd, c.nSnd), "ns"},
			metric{"receiver.ns_per_pkt" + sz.suffix, ns(c.rcv, c.nRcvPk), "ns"})
	}
	return out, nil
}

// replayNet is the virtual network: it moves encoded packets between
// the machines instantly and charges each call to its layer.
type replayNet struct {
	now  sim.Time
	snd  *sender.Sender
	rcvs []*receiver.Receiver
	c    replayCost
}

// fromSender encodes the sender's queued packets once and hands each
// to its receivers.
func (n *replayNet) fromSender(outs []sender.Out) error {
	if len(outs) == 0 {
		return nil
	}
	pkts := make([]*packet.Packet, len(outs))
	dests := make([]sender.Dest, len(outs))
	for i := range outs {
		pkts[i], dests[i] = outs[i].Pkt, outs[i].Dest
	}
	encs, err := n.encode(pkts)
	for i := range outs {
		if !outs[i].Windowed {
			packet.Put(outs[i].Pkt)
		}
	}
	t := time.Now()
	n.snd.Recycle(outs)
	n.c.snd += time.Since(t)
	if err != nil {
		return err
	}
	for k, r := range n.rcvs {
		var mine [][]byte
		for i, d := range dests {
			if d.Multicast || d.Node == packet.NodeID(k+1) {
				mine = append(mine, encs[i])
			}
		}
		ps, err := n.decode(mine)
		if err != nil {
			return err
		}
		t := time.Now()
		for _, p := range ps {
			if p.Type == packet.TypeData {
				n.c.nRcvPk++
			}
			if retained, _ := r.HandleFrom(n.now, replaySender, p); !retained {
				packet.Put(p)
			}
		}
		n.c.rcv += time.Since(t)
	}
	return nil
}

// fromReceiver delivers one receiver's feedback to the sender and, for
// multicast feedback, to its peers.
func (n *replayNet) fromReceiver(k int) error {
	r := n.rcvs[k]
	t := time.Now()
	uni := r.Outgoing()
	multi := r.OutgoingMulticast()
	n.c.rcv += time.Since(t)
	all := append(append([]*packet.Packet(nil), uni...), multi...)
	if len(all) == 0 {
		return nil
	}
	encs, err := n.encode(all)
	for _, p := range all {
		packet.Put(p)
	}
	if err != nil {
		return err
	}
	ps, err := n.decode(encs)
	if err != nil {
		return err
	}
	from := packet.NodeID(k + 1)
	t = time.Now()
	for _, p := range ps {
		n.snd.HandlePacket(n.now, from, p)
	}
	n.snd.TryRelease(n.now)
	n.c.snd += time.Since(t)
	for _, p := range ps {
		packet.Put(p)
	}
	for j, peer := range n.rcvs {
		if j == k || len(multi) == 0 {
			continue
		}
		ps, err := n.decode(encs[len(uni):])
		if err != nil {
			return err
		}
		t := time.Now()
		for _, p := range ps {
			if retained, _ := peer.HandleFrom(n.now, from, p); !retained {
				packet.Put(p)
			}
		}
		n.c.rcv += time.Since(t)
	}
	return nil
}

// encode puts each packet on the wire in a buffer of its own: receivers
// keep borrowed packets that alias it.
func (n *replayNet) encode(pkts []*packet.Packet) ([][]byte, error) {
	encs := make([][]byte, len(pkts))
	for i, p := range pkts {
		encs[i] = make([]byte, 0, packet.HeaderSize+len(p.Payload))
	}
	t := time.Now()
	for i, p := range pkts {
		var err error
		if encs[i], err = p.Encode(encs[i]); err != nil {
			return nil, err
		}
	}
	n.c.enc += time.Since(t)
	n.c.nEnc += int64(len(pkts))
	return encs, nil
}

func (n *replayNet) decode(encs [][]byte) ([]*packet.Packet, error) {
	ps := make([]*packet.Packet, len(encs))
	for i := range ps {
		ps[i] = packet.Get()
	}
	t := time.Now()
	for i, b := range encs {
		if err := packet.DecodeBorrow(ps[i], b); err != nil {
			return nil, err
		}
	}
	n.c.dec += time.Since(t)
	n.c.nDec += int64(len(encs))
	return ps, nil
}

func replayOnce(seed int64, sz replaySize) (replayCost, error) {
	src := newStream(seed, 0)
	scfg := session.FlowSpec{Kind: session.KindSender, Buf: flowBuf, Receivers: replayReceivers}.SenderConfig()
	scfg.MSS = sz.mss
	n := &replayNet{snd: sender.New(scfg)}
	vs := make([]verifier, replayReceivers)
	for k := 0; k < replayReceivers; k++ {
		rcfg := session.FlowSpec{Kind: session.KindReceiver, Buf: flowBuf}.ReceiverConfig()
		rcfg.MSS = sz.mss
		rcfg.LocalAddr = packet.NodeID(k + 1)
		rcfg.RecyclePackets = true
		n.rcvs = append(n.rcvs, receiver.New(rcfg))
		vs[k] = verifier{src: src}
	}
	wbuf, rbuf := make([]byte, chunk), make([]byte, chunk)
	var pending []byte
	written, closed := 0, false
	eof := make([]bool, replayReceivers)
	for step := 0; step < replayMaxSteps; step++ {
		// The application writes until the window is full.
		for !closed {
			if len(pending) == 0 && written < sz.bytes {
				pending = wbuf[:min(chunk, sz.bytes-written)]
				src.fill(pending, int64(written))
			}
			t := time.Now()
			w := 0
			if len(pending) > 0 {
				w = n.snd.Write(n.now, pending)
			} else {
				n.snd.Close(n.now)
				closed = true
			}
			n.c.snd += time.Since(t)
			pending = pending[w:]
			written += w
			if w == 0 {
				break
			}
		}
		t := time.Now()
		n.snd.Tick(n.now)
		outs := n.snd.Outgoing()
		n.c.snd += time.Since(t)
		if err := n.fromSender(outs); err != nil {
			return n.c, err
		}
		// Feedback rounds until the machines fall quiet for this step.
		for round := 0; round < 8; round++ {
			for k, r := range n.rcvs {
				t := time.Now()
				r.Advance(n.now)
				n.c.rcv += time.Since(t)
				for !eof[k] {
					t := time.Now()
					m, err := r.Read(n.now, rbuf)
					n.c.rcv += time.Since(t)
					if m > 0 {
						if err := vs[k].check(rbuf[:m]); err != nil {
							return n.c, fmt.Errorf("receiver %d: %w", k, err)
						}
					}
					if err == io.EOF {
						eof[k] = true
					}
					if m == 0 || err != nil {
						break
					}
				}
				if err := n.fromReceiver(k); err != nil {
					return n.c, err
				}
			}
			t := time.Now()
			outs := n.snd.Outgoing()
			n.c.snd += time.Since(t)
			if len(outs) == 0 {
				break
			}
			if err := n.fromSender(outs); err != nil {
				return n.c, err
			}
		}
		done := n.snd.Done()
		for k, r := range n.rcvs {
			done = done && r.Done() && vs[k].off == int64(sz.bytes)
		}
		if done {
			st := n.snd.Stats()
			n.c.nSnd = st.PacketsSent + st.Retransmissions
			return n.c, nil
		}
		n.now += sim.Time(replayStep)
	}
	return n.c, fmt.Errorf("transfer did not complete within %d virtual steps", replayMaxSteps)
}
