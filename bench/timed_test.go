package main

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/control"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/udpmcast"
)

func testWrap(tr transport.Transport) transport.Transport {
	return wrap(tr, newTracer(), &ioTally{}, &portXfer{}, &sync.Map{})
}

// TestWrapKeepsInterfaces pins that the timing wrapper exposes exactly
// the optional interfaces of what it wraps: the session type-asserts
// BatchTransport and FilteredTransport, control.ShardedDialer takes
// GroupTransports, narrows them with transport.AsTransport and asserts
// GroupReporter. Losing one would make the traced run measure a
// different program (no filter pushdown, batch size 1, no shard stats).
func TestWrapKeepsInterfaces(t *testing.T) {
	hub := transport.NewHub()
	ep := testWrap(hub.Endpoint())
	defer ep.Close()
	for name, ok := range map[string]bool{
		"BatchTransport":    is[transport.BatchTransport](ep),
		"FilteredTransport": is[transport.FilteredTransport](ep),
		"GroupTransport":    is[transport.GroupTransport](ep),
		"GroupReporter":     is[transport.GroupReporter](ep),
	} {
		if !ok {
			t.Errorf("wrapped hub endpoint lost %s", name)
		}
	}
	if transport.Batched(ep) != ep.(transport.BatchTransport) {
		t.Error("transport.Batched re-wrapped the hub endpoint wrapper")
	}

	gt, err := udpmcast.NewGroupTransport(udpmcast.GroupConfig{Port: 47311, Loopback: true})
	if err != nil {
		t.Skipf("loopback group transport unavailable: %v", err)
	}
	shard := testWrap(gt)
	defer shard.Close()
	if !is[transport.GroupTransport](shard) || !is[transport.GroupReporter](shard) {
		t.Fatal("wrapped shard lost GroupTransport or GroupReporter")
	}
	if is[transport.FilteredTransport](shard) {
		t.Error("wrapped shard gained FilteredTransport, which the shard itself lacks")
	}
	d, err := control.NewShardedDialer([]transport.GroupTransport{shard.(transport.GroupTransport)})
	if err != nil {
		t.Fatal(err)
	}
	link, err := d.Dial(control.FlowSpec{Group: "239.200.1.1:47311", Role: control.RoleRecv})
	if err != nil {
		t.Fatal(err)
	}
	if link.Transport != shard || link.Group == 0 || !link.Shared {
		t.Errorf("dial returned %+v, want the wrapped shard itself with a group", link)
	}
	if st := d.ShardStats(); st[0].Joined != 1 {
		t.Errorf("shard stats through the wrapper: %+v, want one joined group", st[0])
	}
}

func is[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

// TestWrappedHubTransfer moves a group-addressed stream through a
// session over wrapped hub endpoints and checks it arrives bit-exact
// and that the wrapper saw the traffic.
func TestWrappedHubTransfer(t *testing.T) {
	const size = 256 << 10
	hub := transport.NewHub(transport.WithLoss(0.01, 7))
	tc, tally, ports := newTracer(), &ioTally{}, &portXfer{}
	snd := wrap(hub.Endpoint(), tc, tally, ports, &sync.Map{})
	rcv := wrap(hub.Endpoint(), tc, tally, ports, &sync.Map{})
	sess := session.New(session.Config{})
	defer sess.Abort()
	gid, err := rcv.(transport.GroupTransport).Join("g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snd.(transport.GroupTransport).Register("g"); err != nil {
		t.Fatal(err)
	}
	rf, err := sess.OpenReceiverFlow(rcv, session.FlowSpec{Kind: session.KindReceiver, LocalPort: 2, PeerPort: 1, Buf: flowBuf, Group: gid})
	if err != nil {
		t.Fatal(err)
	}
	sf, err := sess.OpenSenderFlow(snd, session.FlowSpec{Kind: session.KindSender, LocalPort: 1, PeerPort: 2, Buf: flowBuf, Receivers: 1, Group: gid})
	if err != nil {
		t.Fatal(err)
	}
	src := newStream(3, 1)
	want := make([]byte, size)
	src.fill(want, 0)
	errc := make(chan error, 1)
	go func() {
		if _, err := sf.Write(want); err != nil {
			errc <- err
			return
		}
		errc <- sf.Close()
	}()
	got, err := io.ReadAll(rf)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stream through wrapped endpoints is not bit-exact")
	}
	if tally.sendEnvs.Load() == 0 || tally.recvEnvs.Load() == 0 || len(tc.kept()) == 0 {
		t.Errorf("wrapper saw no traffic: sent %d, received %d, spans %d",
			tally.sendEnvs.Load(), tally.recvEnvs.Load(), len(tc.kept()))
	}
}

// TestStreamIsOffsetAddressed pins that the seeded source does not
// depend on how it is chunked.
func TestStreamIsOffsetAddressed(t *testing.T) {
	s := newStream(42, 3)
	whole := make([]byte, 1000)
	s.fill(whole, 0)
	v := verifier{src: s}
	for off := 0; off < len(whole); {
		n := min(1+off%13, len(whole)-off)
		if err := v.check(whole[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	whole[500] ^= 1
	v = verifier{src: s}
	if v.check(whole) == nil {
		t.Fatal("a flipped byte passed verification")
	}
	// Bytes of the right object at the wrong offset, and bytes of
	// another object, must fail too.
	shifted := make([]byte, 4*cellSize)
	s.fill(shifted, baseLen)
	v = verifier{src: s}
	if v.check(shifted) == nil {
		t.Fatal("bytes from one base period later passed verification")
	}
	other := make([]byte, 4*cellSize)
	newStream(42, 4).fill(other, 0)
	v = verifier{src: s}
	if v.check(other) == nil {
		t.Fatal("another object's bytes passed verification")
	}
}

func BenchmarkStreamFill(b *testing.B) {
	s := newStream(1, 1)
	buf := make([]byte, chunk)
	b.SetBytes(chunk)
	for i := 0; i < b.N; i++ {
		s.fill(buf, int64(i)*chunk)
	}
}
