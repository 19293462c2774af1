package repro

import (
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/rate"
	"repro/internal/transport"
	"repro/internal/udpmcast"
)

// BenchmarkUdpOffload measures what UDP segmentation offload buys the
// real-socket datapath, offload-on vs offload-off, over loopback
// multicast. Two arms per setting:
//
//   - transport: raw SendBatch blast through a sender endpoint — the
//     syscall economics in isolation. Custom metrics record
//     datagrams-per-syscall (dgram/syscall) and how much traffic rode
//     GSO supersegments / arrived as GRO supersegments.
//   - session: one full reliable single-flow transfer (session tick
//     loop, rate machine, bit-exact delivery) over real UDP — the
//     end-to-end single-flow throughput BENCH_9.json gates against the
//     BENCH_5 in-memory baseline.
//
// The offload-on arms skip with a clear message on kernels without
// UDP_SEGMENT/UDP_GRO; the off arms always run, pinning the fallback
// path's numbers. scripts/bench.sh writes both to BENCH_9.json.
func BenchmarkUdpOffload(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "offload=off"
		if on {
			name = "offload=on"
		}
		b.Run("transport/"+name, func(b *testing.B) { benchOffloadTransport(b, on) })
		b.Run("session/"+name, func(b *testing.B) { benchOffloadSession(b, on) })
	}
}

// skipWithoutOffload gates an offload-on arm on live kernel support.
func skipWithoutOffload(b *testing.B, on bool) {
	b.Helper()
	if !on {
		return
	}
	gso, gro := udpmcast.ProbeOffload()
	if !gso && !gro {
		b.Skip("kernel accepts neither UDP_SEGMENT nor UDP_GRO; skipping offload-on arm")
	}
}

// benchOffloadTransport blasts fixed-size multicast batches through a
// real sender transport while a receiver drains (and discards) them,
// measuring wire throughput and syscall amortization with the reliable
// protocol out of the way.
func benchOffloadTransport(b *testing.B, on bool) {
	lo, err := net.InterfaceByName("lo")
	if err != nil {
		b.Skipf("no loopback interface: %v", err)
	}
	skipWithoutOffload(b, on)
	udpmcast.SetOffload(on)
	defer udpmcast.SetOffload(true)

	group := "239.77.14.5:40990"
	if on {
		group = "239.77.14.5:40991" // keep the arms' straggler traffic apart
	}
	rt, err := udpmcast.NewReceiverTransport(group, lo)
	if err != nil {
		b.Skipf("loopback multicast unavailable: %v", err)
	}
	defer rt.Close()
	st, err := udpmcast.NewSenderTransport(group, udpmcast.WithEgressIP(net.IPv4(127, 0, 0, 1)))
	if err != nil {
		b.Skipf("loopback multicast unavailable: %v", err)
	}
	defer st.Close()
	var received atomic.Int64
	go func() {
		buf := make([]transport.Envelope, 64)
		for {
			n, err := rt.RecvBatch(buf)
			if err != nil {
				return
			}
			received.Add(int64(n))
			for i := 0; i < n; i++ {
				packet.Put(buf[i].Pkt)
				buf[i] = transport.Envelope{}
			}
		}
	}()

	const (
		batch   = 64 // envelopes per SendBatch — one staged poller batch
		rounds  = 16
		payload = 1400 // MSS-sized, the coalescing sweet spot
	)
	env := make([]transport.Envelope, batch)
	for i := range env {
		pl := bytes.Repeat([]byte{byte(i)}, payload)
		env[i] = transport.Envelope{
			Pkt: &packet.Packet{
				Header:  packet.Header{Type: packet.TypeData, Seq: uint32(i), Length: payload},
				Payload: pl,
			},
			Multicast: true,
		}
	}
	b.SetBytes(int64(batch * rounds * (payload + packet.HeaderSize)))
	before := transport.IOStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			if err := st.SendBatch(env); err != nil {
				b.Fatalf("SendBatch: %v", err)
			}
		}
	}
	b.StopTimer()
	// Let the receive side drain what survived the blast (on a 1-CPU
	// host the reader goroutines barely run while the send loop spins)
	// before sampling the GRO counters: poll until the received count
	// stops moving.
	for prev := int64(-1); ; {
		cur := received.Load()
		if cur == prev {
			break
		}
		prev = cur
		time.Sleep(10 * time.Millisecond)
	}
	after := transport.IOStats()
	if d := after.SendSyscalls - before.SendSyscalls; d > 0 {
		b.ReportMetric(float64(after.SentDatagrams-before.SentDatagrams)/float64(d), "dgram/syscall")
	}
	b.ReportMetric(float64(after.GsoSegments-before.GsoSegments)/float64(b.N), "gso-segs/op")
	b.ReportMetric(float64(after.GroSupersegments-before.GroSupersegments)/float64(b.N), "gro-super/op")
	b.ReportMetric(float64(received.Load())/float64(b.N), "rcvd-dgrams/op")
}

// benchOffloadSession runs one reliable 4 MiB single-flow transfer per
// iteration over real UDP loopback multicast — the full datapath the
// BENCH_5 in-memory baseline measures, now with real sockets and (in
// the on arm) segmentation offload.
func benchOffloadSession(b *testing.B, on bool) {
	lo, err := net.InterfaceByName("lo")
	if err != nil {
		b.Skipf("no loopback interface: %v", err)
	}
	skipWithoutOffload(b, on)
	udpmcast.SetOffload(on)
	defer udpmcast.SetOffload(true)

	const size = 4 << 20
	data := make([]byte, size)
	app.FillPattern(data, 11<<20)
	scratch := make([]byte, 256<<10)
	fast := rate.Config{MinRate: 64e6, MaxRate: 8e9, MSS: 1400}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh group port per iteration keeps straggler datagrams
		// from a finished transfer out of the next one.
		group := fmt.Sprintf("239.77.14.6:%d", 41300+i%1024)
		rt, err := udpmcast.NewReceiverTransport(group, lo)
		if err != nil {
			b.Skipf("loopback multicast unavailable: %v", err)
		}
		st, err := udpmcast.NewSenderTransport(group, udpmcast.WithEgressIP(net.IPv4(127, 0, 0, 1)))
		if err != nil {
			rt.Close()
			b.Skipf("loopback multicast unavailable: %v", err)
		}
		runCrossoverTransfer(b, &gapSink{}, data, scratch, rt, st, 0, fast)
	}
}
