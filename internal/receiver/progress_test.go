package receiver

import (
	"slices"
	"testing"

	"repro/internal/packet"
	"repro/internal/repair"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// progressOn builds a receiver with ProgressUpdates on over the 32-packet
// test window, so a reporting stride is 8 packets.
func progressOn(t *testing.T, mod func(*Config)) *Receiver {
	t.Helper()
	return newR(t, func(c *Config) {
		c.ProgressUpdates = true
		if mod != nil {
			mod(c)
		}
	})
}

// updateSeqs drains every output queue and returns the sequence numbers
// the UPDATEs among them carry, in order.
func updateSeqs(r *Receiver) []uint32 {
	var seqs []uint32
	for _, p := range r.Outgoing() {
		if p.Type == packet.TypeUpdate {
			seqs = append(seqs, p.Seq)
		}
	}
	for _, a := range r.OutgoingAddressed() {
		if a.Pkt.Type == packet.TypeUpdate {
			seqs = append(seqs, a.Pkt.Seq)
		}
	}
	return seqs
}

func keepalive(seq seqspace.Seq) *packet.Packet {
	return &packet.Packet{Header: packet.Header{Type: packet.TypeKeepalive, Seq: uint32(seq)}}
}

// feed delivers seqs in order, with the application reading after each
// packet so the window never fills.
func feed(r *Receiver, now sim.Time, seqs ...seqspace.Seq) {
	buf := make([]byte, 64)
	for _, s := range seqs {
		r.HandlePacket(now, data(s, "x"))
		r.Read(now, buf)
	}
}

func seqRange(from, to seqspace.Seq) []seqspace.Seq {
	var s []seqspace.Seq
	for q := from; q < to; q++ {
		s = append(s, q)
	}
	return s
}

func TestProgressUpdateEveryQuarterWindow(t *testing.T) {
	r := progressOn(t, nil)
	var got []uint32
	for s := seqspace.Seq(0); s < 32; s++ {
		feed(r, sim.Millisecond, s)
		got = append(got, updateSeqs(r)...)
	}
	if want := []uint32{8, 16, 24, 32}; !slices.Equal(got, want) {
		t.Errorf("UPDATEs carried %v, want one per 8-packet stride %v", got, want)
	}
	if n := r.Stats().UpdatesProgress; n != 4 {
		t.Errorf("UpdatesProgress = %d, want 4", n)
	}
	// Each informed its period, so the Update Generator stays quiet.
	wake, _ := r.NextWake()
	r.Advance(wake)
	if got := updateSeqs(r); len(got) != 0 || r.Stats().UpdatesSkipped != 1 {
		t.Errorf("periodic timer after a progress UPDATE: sent %v, skipped %d; want none, 1",
			got, r.Stats().UpdatesSkipped)
	}
}

func TestProgressUpdateIgnoresOutOfOrderArrivals(t *testing.T) {
	r := progressOn(t, nil)
	feed(r, sim.Millisecond, seqRange(1, 12)...) // seq 0 lost: rcv_nxt stays 0
	if got := updateSeqs(r); len(got) != 0 {
		t.Fatalf("out-of-order arrivals sent UPDATEs %v", got)
	}
	feed(r, 2*sim.Millisecond, 0) // the repair advances rcv_nxt to 12
	if got := updateSeqs(r); !slices.Equal(got, []uint32{12}) {
		t.Errorf("UPDATEs after the gap filled: %v, want [12]", got)
	}
}

func TestProgressUpdateOnKeepalive(t *testing.T) {
	r := progressOn(t, nil)
	feed(r, sim.Millisecond, 0, 1, 2) // below one stride
	if got := updateSeqs(r); len(got) != 0 {
		t.Fatalf("UPDATE before a stride of progress: %v", got)
	}
	r.HandlePacket(2*sim.Millisecond, keepalive(2))
	if got := updateSeqs(r); !slices.Equal(got, []uint32{3}) {
		t.Fatalf("KEEPALIVE with unreported progress sent %v, want [3]", got)
	}
	r.HandlePacket(3*sim.Millisecond, keepalive(2))
	if got := updateSeqs(r); len(got) != 0 {
		t.Errorf("KEEPALIVE with nothing new to report sent %v", got)
	}
	if n := r.Stats().UpdatesProgress; n != 1 {
		t.Errorf("UpdatesProgress = %d, want 1", n)
	}
}

// TestProgressUpdatesOnlyForFlatHRMC: the field is inert when off, for
// the RMC baseline, for a repair head (which aggregates on its own
// clock) and for a leaf (which reports to its head).
func TestProgressUpdatesOnlyForFlatHRMC(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"off", func(c *Config) { c.ProgressUpdates = false }},
		{"rmc", func(c *Config) { c.Mode = RMC }},
		{"head", func(c *Config) { c.Head = &repair.Config{} }},
		{"leaf", func(c *Config) { c.RepairHead = testHead }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := progressOn(t, tc.mod)
			feed(r, sim.Millisecond, seqRange(0, 20)...)
			r.HandlePacket(2*sim.Millisecond, keepalive(19))
			if got := updateSeqs(r); len(got) != 0 {
				t.Errorf("UPDATEs %v", got)
			}
			if n := r.Stats().UpdatesProgress; n != 0 {
				t.Errorf("UpdatesProgress = %d, want 0", n)
			}
		})
	}
}

// TestProgressUpdateRebaseNotProgress: a mid-stream joiner anchored far
// from InitialSeq measures progress from its anchor, not from the
// history it skipped.
func TestProgressUpdateRebaseNotProgress(t *testing.T) {
	for _, tc := range []struct {
		name   string
		anchor func(r *Receiver)
	}{
		{"data", func(r *Receiver) { feed(r, sim.Millisecond, 1000) }},
		{"keepalive", func(r *Receiver) {
			r.HandlePacket(sim.Millisecond, keepalive(999))
			feed(r, sim.Millisecond, 1000)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := progressOn(t, func(c *Config) { c.JoinInProgress = true })
			tc.anchor(r)
			feed(r, sim.Millisecond, seqRange(1001, 1007)...)
			if got := updateSeqs(r); len(got) != 0 {
				t.Fatalf("UPDATEs %v after 7 packets past the anchor", got)
			}
			feed(r, sim.Millisecond, 1007)
			if got := updateSeqs(r); !slices.Equal(got, []uint32{1008}) {
				t.Errorf("UPDATEs %v after one stride past the anchor, want [1008]", got)
			}
		})
	}
}
