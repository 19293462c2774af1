package udpmcast

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/session"
	"repro/internal/transport"
)

const testGroup = "239.66.77.88:39877"

// loopbackInterface returns an interface suitable for same-host
// multicast, preferring loopback.
func loopbackInterface(t *testing.T) *net.Interface {
	t.Helper()
	ifs, err := net.Interfaces()
	if err != nil {
		t.Skipf("no interfaces: %v", err)
	}
	for _, ifi := range ifs {
		if ifi.Flags&net.FlagLoopback != 0 && ifi.Flags&net.FlagUp != 0 {
			ifi := ifi
			return &ifi
		}
	}
	return nil
}

// multicastAvailable probes whether same-host multicast actually moves
// packets in this environment.
func multicastAvailable(t *testing.T) bool {
	t.Helper()
	ifi := loopbackInterface(t)
	rt, err := NewReceiverTransport(testGroup, ifi)
	if err != nil {
		t.Logf("multicast unavailable: %v", err)
		return false
	}
	defer rt.Close()
	st, err := NewSenderTransport(testGroup, WithEgressIP(net.IPv4(127, 0, 0, 1)))
	if err != nil {
		t.Logf("multicast unavailable: %v", err)
		return false
	}
	defer st.Close()
	probe := &packet.Packet{Header: packet.Header{Type: packet.TypeKeepalive, Seq: 42}}
	got := make(chan bool, 1)
	go func() {
		p, _, err := rt.Recv()
		got <- err == nil && p.Seq == 42
	}()
	for i := 0; i < 5; i++ {
		if err := st.Send(probe, true, 0); err != nil {
			t.Logf("multicast send failed: %v", err)
			return false
		}
		select {
		case ok := <-got:
			return ok
		case <-time.After(200 * time.Millisecond):
		}
	}
	return false
}

func TestUDPMulticastTransfer(t *testing.T) {
	if !multicastAvailable(t) {
		t.Skip("IP multicast not available in this environment")
	}
	const n = 2
	const size = 64 << 10
	ifi := loopbackInterface(t)

	var rts []*GroupTransport
	for i := 0; i < n; i++ {
		rt, err := NewReceiverTransport(testGroup, ifi)
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
	}
	st, err := NewSenderTransport(testGroup, WithEgressIP(net.IPv4(127, 0, 0, 1)))
	if err != nil {
		t.Fatal(err)
	}

	want := make([]byte, size)
	app.FillPattern(want, 0)

	sess := session.New(session.Config{})
	defer sess.Abort()
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i, rt := range rts {
		rc, err := sess.OpenReceiver(rt, receiver.Config{RcvBuf: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := io.ReadAll(rc)
			if err != nil {
				t.Errorf("receiver %d: %v", i, err)
			}
			results[i] = got
		}(i)
	}

	sc, err := sess.OpenSender(st, sender.Config{SndBuf: 64 << 10, ExpectedReceivers: n})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Write(want); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- sc.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sender Close timed out over UDP multicast")
	}
	wg.Wait()
	for i, got := range results {
		if !bytes.Equal(got, want) {
			t.Errorf("receiver %d delivered %d bytes, equal=%v", i, len(got), bytes.Equal(got, want))
		}
	}
}

// recvSeq drains tr until a packet with the given sequence number
// arrives and returns its envelope; tr is closed (failing the test) if
// none arrives in time.
func recvSeq(t *testing.T, tr *GroupTransport, seq uint32) transport.Envelope {
	t.Helper()
	timer := time.AfterFunc(10*time.Second, func() { tr.Close() })
	defer timer.Stop()
	buf := make([]transport.Envelope, mmsgBatch)
	for {
		n, err := tr.RecvBatch(buf)
		if err != nil {
			t.Fatalf("waiting for seq %d: %v", seq, err)
		}
		for i := 0; i < n; i++ {
			e := buf[i]
			if e.Pkt.Seq == seq {
				transport.ReleaseEnvelopes(buf[i+1 : n])
				return e
			}
			packet.Put(e.Pkt)
		}
	}
}

// TestSingleGroupEndpointsAddressPeers checks that the single-group
// constructors build one endpoint: a sender's Group 0 multicast reaches
// a receiver, which attributes it to the sender's learned node ID, and
// a unicast reply addressed to that ID reaches the sender.
func TestSingleGroupEndpointsAddressPeers(t *testing.T) {
	if !multicastAvailable(t) {
		t.Skip("IP multicast not available in this environment")
	}
	rt, err := NewReceiverTransport(testGroup, loopbackInterface(t))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	st, err := NewSenderTransport(testGroup, WithEgressIP(net.IPv4(127, 0, 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	data := &packet.Packet{Header: packet.Header{Type: packet.TypeKeepalive, Seq: 501}}
	if err := st.SendBatch([]transport.Envelope{{Pkt: data, Multicast: true}}); err != nil {
		t.Fatalf("Group 0 multicast: %v", err)
	}
	got := recvSeq(t, rt, 501)
	packet.Put(got.Pkt)
	if got.From < peerIDBase {
		t.Fatalf("receiver attributed the multicast to node %v, want a learned ID >= %v", got.From, peerIDBase)
	}
	if got.Group != 0 {
		t.Errorf("single-group arrival tagged with group %v, want 0", got.Group)
	}

	reply := &packet.Packet{Header: packet.Header{Type: packet.TypeUpdate, Seq: 502}}
	if err := rt.SendBatch([]transport.Envelope{{Pkt: reply, To: got.From}}); err != nil {
		t.Fatalf("unicast reply to the learned sender ID: %v", err)
	}
	back := recvSeq(t, st, 502)
	packet.Put(back.Pkt)
	if back.From < peerIDBase {
		t.Errorf("sender attributed the reply to node %v, want a learned ID >= %v", back.From, peerIDBase)
	}
}

func TestSenderTransportRejectsNonMulticastGroup(t *testing.T) {
	if _, err := NewSenderTransport("127.0.0.1:9999"); err == nil {
		t.Error("unicast group address accepted")
	}
	if _, err := NewSenderTransport("not-an-address"); err == nil {
		t.Error("garbage group address accepted")
	}
}

func TestSenderTransportUnknownNode(t *testing.T) {
	st, err := NewSenderTransport(testGroup)
	if err != nil {
		t.Skipf("cannot open sender transport: %v", err)
	}
	defer st.Close()
	p := &packet.Packet{Header: packet.Header{Type: packet.TypeProbe}}
	if err := st.Send(p, false, 99); err == nil {
		t.Error("unicast to unknown node succeeded")
	}
}

func TestReceiverTransportSendBeforeSenderKnown(t *testing.T) {
	rt, err := NewReceiverTransport(testGroup, loopbackInterface(t))
	if err != nil {
		t.Skipf("cannot join group: %v", err)
	}
	defer rt.Close()
	p := &packet.Packet{Header: packet.Header{Type: packet.TypeNak}}
	if err := rt.Send(p, false, 0); err == nil {
		t.Error("feedback before the sender address is known succeeded")
	}
	// Multicast (local-recovery traffic) needs no sender address.
	if err := rt.Send(p, true, 0); err != nil {
		t.Errorf("receiver multicast failed: %v", err)
	}
}

func TestNodeIDAssignmentStable(t *testing.T) {
	st, err := NewSenderTransport(testGroup)
	if err != nil {
		t.Skipf("cannot open sender transport: %v", err)
	}
	defer st.Close()
	// Feed feedback from two local sockets straight to the sender's
	// unicast port; IDs must be dense and stable per source.
	dst := st.Addr()
	c1, err := net.DialUDP("udp4", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: dst.Port})
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer c1.Close()
	c2, err := net.DialUDP("udp4", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: dst.Port})
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer c2.Close()
	send := func(c *net.UDPConn, seq uint32) {
		p := &packet.Packet{Header: packet.Header{Type: packet.TypeUpdate, Seq: seq}}
		buf, _ := p.Encode(nil)
		c.Write(buf)
	}
	send(c1, 1)
	p1, id1, err := st.Recv()
	if err != nil || p1.Seq != 1 {
		t.Fatalf("recv1: %v %v", p1, err)
	}
	send(c2, 2)
	_, id2, _ := st.Recv()
	send(c1, 3)
	_, id3, _ := st.Recv()
	if id1 == id2 {
		t.Error("two sources shared a node ID")
	}
	if id3 != id1 {
		t.Error("same source got a different node ID")
	}
}
