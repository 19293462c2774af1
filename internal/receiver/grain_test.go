package receiver

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/sim"
)

// TestGrainScalesDefaults checks the jiffy-denominated defaults follow
// Config.Grain and keep the paper's values at the default grain.
func TestGrainScalesDefaults(t *testing.T) {
	for _, grain := range []sim.Time{0, sim.Millisecond} {
		g := grain
		if g == 0 {
			g = kernel.Jiffy
		}
		r := newR(t, func(c *Config) { c.Grain = grain })
		if got := r.UpdatePeriod(); got != 50*g {
			t.Errorf("grain %v: initial update period %v, want %v", g, got, 50*g)
		}
		if got := r.RTT(); got != 2*g {
			t.Errorf("grain %v: assumed RTT %v, want the two-grain floor %v", g, got, 2*g)
		}
		if at, ok := r.NextWake(); !ok || at != 50*g {
			t.Errorf("grain %v: NextWake %v,%v, want the update timer at %v", g, at, ok, 50*g)
		}
		// The first data packet sends a JOIN, retried every 50 grains.
		r.HandlePacket(g, data(0, "x"))
		r.Outgoing()
		r.Advance(51 * g)
		var joins int
		for _, p := range r.Outgoing() {
			if p.Type == packet.TypeJoin {
				joins++
			}
		}
		if joins != 1 {
			t.Errorf("grain %v: %d JOIN retries 50 grains after the first, want 1", g, joins)
		}
	}
}

// TestNextWakeCoversHeadSilence: a leaf waiting on its repair head asks
// to be woken when the head-silence timeout would fail it over, not
// only at its protocol timers.
func TestNextWakeCoversHeadSilence(t *testing.T) {
	const silence = 300 * sim.Millisecond
	r := newR(t, func(c *Config) {
		c.Grain = sim.Millisecond
		c.RepairHead = 9
		c.HeadSilenceTimeout = silence
		c.InitialUpdatePeriod = 10 * sim.Second
	})
	r.HandleFrom(sim.Millisecond, 1, data(0, "x")) // JOIN goes to the head
	deadline := sim.Millisecond + silence
	// Drive the leaf only at the times NextWake names (JOIN retries, then
	// the silence deadline), as a deadline-driven loop does.
	var at sim.Time
	for !r.HeadDown() {
		r.OutgoingAddressed()
		var ok bool
		if at, ok = r.NextWake(); !ok || at > deadline {
			t.Fatalf("NextWake = %v,%v, past the head-silence deadline %v", at, ok, deadline)
		}
		r.Advance(at)
	}
	if at != deadline {
		t.Errorf("failed over at %v, want the head-silence deadline %v", at, deadline)
	}
}

// TestRetryLeave: with RetryLeave an unanswered LEAVE is resent after
// 50 grains, and LEAVE_RESPONSE ends the retries.
func TestRetryLeave(t *testing.T) {
	const g = sim.Millisecond
	leaves := func(r *Receiver) (n int) {
		for _, p := range r.Outgoing() {
			if p.Type == packet.TypeLeave {
				n++
			}
		}
		return n
	}
	r := newR(t, func(c *Config) { c.Grain = g; c.RetryLeave = true })
	fin := data(0, "")
	fin.Flags = packet.FlagFIN
	r.HandlePacket(g, fin)
	if _, err := r.Read(g, make([]byte, 8)); err == nil {
		t.Fatal("no EOF on a FIN-only stream")
	}
	if n := leaves(r); n != 1 {
		t.Fatalf("%d LEAVEs at end of stream, want 1", n)
	}
	r.Advance(50 * g)
	if n := leaves(r); n != 0 {
		t.Fatalf("LEAVE resent before 50 grains passed (%d)", n)
	}
	r.Advance(51 * g)
	if n := leaves(r); n != 1 {
		t.Fatalf("%d LEAVEs resent after 50 grains, want 1", n)
	}
	r.HandlePacket(52*g, &packet.Packet{Header: packet.Header{Type: packet.TypeLeaveResponse}})
	if !r.Done() {
		t.Fatal("not Done after LEAVE_RESPONSE")
	}
	r.Advance(10 * sim.Second)
	if n := leaves(r); n != 0 {
		t.Errorf("%d LEAVEs resent after LEAVE_RESPONSE", n)
	}
}
