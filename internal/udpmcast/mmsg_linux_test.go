//go:build linux && (amd64 || arm64)

package udpmcast

import (
	"net"
	"testing"

	"repro/internal/packet"
	"repro/internal/transport"
)

// TestBatchSyscallRuntimeFallback simulates a kernel or sandbox without
// recvmmsg/sendmmsg (the ENOSYS/EPERM path flips mmsgSupported): the
// endpoints must keep moving packets, and the reader under the inbox
// takes one datagram per syscall.
func TestBatchSyscallRuntimeFallback(t *testing.T) {
	mmsgSupported.Store(false)
	t.Cleanup(func() { mmsgSupported.Store(true) })

	st, err := NewSenderTransport(testGroup)
	if err != nil {
		t.Skipf("cannot open sender transport: %v", err)
	}
	defer st.Close()
	c := dialFeedback(t, st.Addr().Port)

	const total = 6
	for i := 0; i < total; i++ {
		writeSeq32(t, c, uint32(300+i))
	}
	seqs, _ := collectSeqs(t, st, 4, total)
	for i := 0; i < total; i++ {
		if seqs[uint32(300+i)] != 1 {
			t.Errorf("seq %d delivered %d times, want 1", 300+i, seqs[uint32(300+i)])
		}
	}

	// Underneath the inbox, the single-read path hands over exactly one
	// datagram per read even with a batch already queued.
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("listen: %v", err)
	}
	defer conn.Close()
	c2 := dialFeedback(t, conn.LocalAddr().(*net.UDPAddr).Port)
	for i := 0; i < total; i++ {
		writeSeq32(t, c2, uint32(400+i))
	}
	br := newBatchReader(conn)
	for i := 0; i < total; i++ {
		n, err := br.read(mmsgBatch)
		if err != nil {
			t.Fatalf("fallback read %d: %v", i, err)
		}
		if n != 1 {
			t.Fatalf("fallback read %d returned %d datagrams, want 1", i, n)
		}
		b, _ := br.datagram(0)
		var p packet.Packet
		if err := packet.DecodeInto(&p, b); err != nil || p.Seq != uint32(400+i) {
			t.Fatalf("fallback read %d: seq %d, err %v; want seq %d", i, p.Seq, err, 400+i)
		}
	}

	// The send side degrades to sequential WriteToUDP: a multicast batch
	// must still leave without error.
	env := make([]transport.Envelope, 3)
	for i := range env {
		env[i] = transport.Envelope{
			Pkt:       &packet.Packet{Header: packet.Header{Type: packet.TypeKeepalive, Seq: uint32(i)}},
			Multicast: true,
		}
	}
	if err := st.SendBatch(env); err != nil {
		t.Errorf("SendBatch under fallback: %v", err)
	}
}
