package udpmcast

import (
	"net"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

// dialFeedback opens a local UDP socket aimed at the given port —
// multicast-free plumbing for driving the receive paths, in the style
// of TestNodeIDAssignmentStable.
func dialFeedback(t *testing.T, port int) *net.UDPConn {
	t.Helper()
	c, err := net.DialUDP("udp4", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func writeSeq32(t *testing.T, c *net.UDPConn, seq uint32) {
	t.Helper()
	p := &packet.Packet{Header: packet.Header{Type: packet.TypeUpdate, Seq: seq}}
	buf, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// collectSeqs drains bt until want distinct sequence numbers arrived,
// asserting every RecvBatch call respects the buffer bound.
func collectSeqs(t *testing.T, bt transport.BatchTransport, bufLen, want int) (map[uint32]int, int) {
	t.Helper()
	buf := make([]transport.Envelope, bufLen)
	seqs := make(map[uint32]int)
	calls := 0
	deadline := time.Now().Add(10 * time.Second)
	for len(seqs) < want && time.Now().Before(deadline) {
		n, err := bt.RecvBatch(buf)
		if err != nil {
			t.Fatalf("RecvBatch: %v", err)
		}
		if n < 1 || n > bufLen {
			t.Fatalf("RecvBatch returned %d envelopes with buffer %d", n, bufLen)
		}
		calls++
		for i := 0; i < n; i++ {
			seqs[buf[i].Pkt.Seq]++
			packet.Put(buf[i].Pkt)
			buf[i] = transport.Envelope{}
		}
	}
	return seqs, calls
}

// TestSenderRecvBatchPartialFill blasts more datagrams at the sender's
// unicast socket than one RecvBatch buffer holds: every packet must
// arrive exactly once across several partially-filled calls, all
// attributed to the same learned node ID.
func TestSenderRecvBatchPartialFill(t *testing.T) {
	st, err := NewSenderTransport(testGroup)
	if err != nil {
		t.Skipf("cannot open sender transport: %v", err)
	}
	defer st.Close()
	c := dialFeedback(t, st.Addr().Port)

	const total = 12
	for i := 0; i < total; i++ {
		writeSeq32(t, c, uint32(100+i))
	}
	buf := make([]transport.Envelope, 4)
	seqs := make(map[uint32]int)
	var from packet.NodeID
	for len(seqs) < total {
		n, err := st.RecvBatch(buf)
		if err != nil {
			t.Fatalf("RecvBatch: %v", err)
		}
		if n < 1 || n > len(buf) {
			t.Fatalf("RecvBatch returned %d with buffer %d", n, len(buf))
		}
		for i := 0; i < n; i++ {
			seqs[buf[i].Pkt.Seq]++
			if from == 0 {
				from = buf[i].From
			} else if buf[i].From != from {
				t.Fatalf("one source got two node IDs: %v and %v", from, buf[i].From)
			}
			packet.Put(buf[i].Pkt)
			buf[i] = transport.Envelope{}
		}
	}
	for i := 0; i < total; i++ {
		if seqs[uint32(100+i)] != 1 {
			t.Errorf("seq %d delivered %d times, want 1", 100+i, seqs[uint32(100+i)])
		}
	}
	if from < peerIDBase {
		t.Errorf("peer node ID %v below peerIDBase", from)
	}
}

// TestSenderBatchAdapterEquivalence checks that the per-packet Recv
// adapter delivers the same stream the batch interface would: strict
// one-in one-out, same node-ID assignment.
func TestSenderBatchAdapterEquivalence(t *testing.T) {
	st, err := NewSenderTransport(testGroup)
	if err != nil {
		t.Skipf("cannot open sender transport: %v", err)
	}
	defer st.Close()
	c := dialFeedback(t, st.Addr().Port)

	var ids []packet.NodeID
	for i := 0; i < 3; i++ {
		writeSeq32(t, c, uint32(i))
		p, id, err := st.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if p.Seq != uint32(i) {
			t.Fatalf("Recv %d: seq %d", i, p.Seq)
		}
		ids = append(ids, id)
		packet.Put(p)
	}
	if ids[0] != ids[1] || ids[1] != ids[2] {
		t.Errorf("adapter re-assigned node IDs across calls: %v", ids)
	}
}

// TestReceiverInboxBatchDelivery feeds the receiver's unicast socket
// directly (the PROBE path) and drains through RecvBatch: the two read
// loops share one inbox, packets arrive once each, and Close unblocks
// with ErrClosed after a drain.
func TestReceiverInboxBatchDelivery(t *testing.T) {
	rt, err := NewReceiverTransport(testGroup, loopbackInterface(t))
	if err != nil {
		t.Skipf("cannot join group: %v", err)
	}
	defer rt.Close()
	c := dialFeedback(t, int(rt.Local()))

	const total = 10
	for i := 0; i < total; i++ {
		writeSeq32(t, c, uint32(200+i))
	}
	seqs, _ := collectSeqs(t, rt, 3, total)
	for i := 0; i < total; i++ {
		if seqs[uint32(200+i)] != 1 {
			t.Errorf("seq %d delivered %d times, want 1", 200+i, seqs[uint32(200+i)])
		}
	}

	rt.Close()
	var buf [1]transport.Envelope
	if _, err := rt.RecvBatch(buf[:]); err != transport.ErrClosed {
		t.Errorf("RecvBatch after close = %v, want ErrClosed", err)
	}
}
