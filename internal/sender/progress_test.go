package sender_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/sim"
	"repro/internal/stats"
)

// runMachines moves size bytes from one sender to three receivers on a
// virtual clock with a 1 ms grain and instant, lossless delivery, and
// no I/O: every grain the application writes what the window admits,
// the sender ticks, packets and feedback are exchanged until the grain
// is quiet (the sender trying release after each feedback batch, as the
// session does), receiver timers fire, and the applications read
// everything. It fails the test unless every receiver gets the stream
// bit-exact, and returns the sender's counters and the virtual time
// the transfer took.
func runMachines(t *testing.T, sndBuf, rcvBuf, size int, progress bool) (*stats.Sender, sim.Time) {
	t.Helper()
	const (
		n     = 3
		grain = sim.Millisecond
	)
	s := sender.New(sender.Config{
		SndBuf: sndBuf, Grain: grain, ExpectedReceivers: n,
	})
	var rs []*receiver.Receiver
	for i := 0; i < n; i++ {
		rs = append(rs, receiver.New(receiver.Config{
			LocalAddr: packet.NodeID(i + 1), RcvBuf: rcvBuf, Grain: grain,
			ProgressUpdates: progress,
		}))
	}
	src := make([]byte, size)
	app.FillPattern(src, 0)
	got := make([][]byte, n)
	buf := make([]byte, 64<<10)

	exchange := func(now sim.Time) {
		for {
			outs := s.Outgoing()
			for _, o := range outs {
				for i, r := range rs {
					if o.Dest.Multicast || o.Dest.Node == packet.NodeID(i+1) {
						r.HandleFrom(now, 0, o.Pkt.Clone())
					}
				}
			}
			s.Recycle(outs)
			fed := false
			for i, r := range rs {
				for _, p := range r.Outgoing() {
					s.HandlePacket(now, packet.NodeID(i+1), p)
					fed = true
				}
			}
			if !fed {
				return
			}
			s.TryRelease(now)
		}
	}

	written, closed := 0, false
	now := grain
	for ; ; now += grain {
		if now > 60*sim.Second {
			t.Fatalf("transfer incomplete after %v: %d of %d bytes written", now, written, size)
		}
		if written < size {
			written += s.Write(now, src[written:])
		}
		if written == size && !closed {
			s.Close(now)
			closed = true
		}
		s.Tick(now)
		exchange(now)
		done := s.Done()
		for i, r := range rs {
			r.Advance(now)
			for {
				k, err := r.Read(now, buf)
				got[i] = append(got[i], buf[:k]...)
				if k == 0 || err == io.EOF {
					break
				}
			}
			done = done && r.Done()
		}
		exchange(now)
		if done {
			break
		}
	}
	for i := range got {
		if !bytes.Equal(got[i], src) {
			t.Fatalf("receiver %d: %d bytes delivered, not bit-exact with the %d-byte source", i+1, len(got[i]), size)
		}
	}
	return s.Stats(), now
}

// TestProgressUpdatesUnblockRelease is the feedback-clocked release
// claim on the bare machines: with a known population, receivers that
// report in-order progress let the sender free its window before the
// MINBUF deadline, so it never stalls and never probes. Without them
// the front waits out MINBUF and the sender probes. The mismatched case
// (a sender buffer an eighth of the receivers', below one reporting
// stride) is carried by the KEEPALIVE trigger.
func TestProgressUpdatesUnblockRelease(t *testing.T) {
	for _, tc := range []struct {
		name           string
		sndBuf, rcvBuf int
	}{
		{"512K-512K", 512 << 10, 512 << 10},
		{"64K-512K", 64 << 10, 512 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			on, onTime := runMachines(t, tc.sndBuf, tc.rcvBuf, 4<<20, true)
			off, offTime := runMachines(t, tc.sndBuf, tc.rcvBuf, 4<<20, false)
			t.Logf("on: %v, %d stalls, %d probes; off: %v, %d stalls, %d probes",
				onTime, on.ReleaseStalls, on.ProbesSent, offTime, off.ReleaseStalls, off.ProbesSent)
			if on.ReleaseStalls != 0 || on.ProbesSent != 0 {
				t.Errorf("progress updates on: %d release stalls, %d probes; want 0, 0",
					on.ReleaseStalls, on.ProbesSent)
			}
			if off.ReleaseStalls == 0 {
				t.Error("progress updates off: no release stalls, so the test does not exercise the MINBUF hold")
			}
			if onTime >= offTime {
				t.Errorf("progress updates on took %v, no faster than %v off", onTime, offTime)
			}
		})
	}
}
