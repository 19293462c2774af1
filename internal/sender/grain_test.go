package sender

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestLeaveWithoutJoinCountsTowardExpected: a receiver whose JOIN was
// lost can still take the whole stream and send its LEAVE. The sender
// must count it once toward ExpectedReceivers, or Close never returns.
func TestLeaveWithoutJoinCountsTowardExpected(t *testing.T) {
	s := newS(t, func(c *Config) {
		c.MinBufRTTs = 1
		c.InitialRTT = sim.Millisecond
		c.ExpectedReceivers = 2
	})
	s.Write(0, make([]byte, 1000))
	s.Close(0) // data seq 0 + FIN seq 1
	now := sim.Millisecond
	s.Tick(now)
	s.Outgoing()
	s.HandlePacket(now, 1, fb(packet.TypeJoin, 2))
	// Receiver 2's JOIN is lost; it delivers the stream and leaves.
	now += sim.Millisecond
	s.HandlePacket(now, 2, fb(packet.TypeLeave, 2))
	s.HandlePacket(now, 1, fb(packet.TypeLeave, 2))
	s.Tick(now)
	if !s.Done() {
		t.Fatalf("not Done after both receivers left (window %d bytes)", s.WindowBytes())
	}
	if got := s.Stats().LeavesReceived; got != 2 {
		t.Errorf("LeavesReceived = %d, want 2", got)
	}
}

// TestRetransmittedLeaveCountsOnce: a duplicated LEAVE from a receiver
// the sender never saw join counts as one departed member, not two.
func TestRetransmittedLeaveCountsOnce(t *testing.T) {
	s := newS(t, func(c *Config) {
		c.MinBufRTTs = 1
		c.InitialRTT = sim.Millisecond
		c.ExpectedReceivers = 2
	})
	s.Write(0, make([]byte, 1000))
	s.Close(0)
	now := sim.Millisecond
	s.Tick(now)
	s.Outgoing()
	for i := 0; i < 2; i++ {
		now += sim.Millisecond
		s.HandlePacket(now, 2, fb(packet.TypeLeave, 2))
	}
	now += 50 * sim.Millisecond
	s.Tick(now)
	if s.Done() {
		t.Fatal("one receiver's duplicated LEAVE satisfied two expected receivers")
	}
}

// TestGrainScalesTimers checks the jiffy-denominated constants follow
// Config.Grain: the first keepalive backoff is two grains and the
// token bucket holds at most two grains of the rate.
func TestGrainScalesTimers(t *testing.T) {
	const grain = sim.Millisecond
	s := newS(t, func(c *Config) { c.Grain = grain })
	s.Write(0, make([]byte, 500))
	s.Tick(0)
	if len(dataOuts(s.Outgoing())) != 1 {
		t.Fatal("the first tick's one-grain budget did not cover a 500-byte packet")
	}
	// Application idle: the next grain owes a keepalive.
	if at, ok := s.NextWake(); !ok || at != grain {
		t.Fatalf("NextWake after the last data = %v,%v, want %v", at, ok, grain)
	}
	s.Tick(grain)
	if findOut(s.Outgoing(), packet.TypeKeepalive) == nil {
		t.Fatal("no keepalive on the idle tick")
	}
	if at, ok := s.NextWake(); !ok || at != 3*grain {
		t.Errorf("keepalive re-arm at %v,%v, want two grains later (%v)", at, ok, 3*grain)
	}

	// Token bucket: after a long idle spell the burst is capped at two
	// grains of the current rate — 20000 bytes at 10 MB/s, 19 packets of
	// 1020 wire bytes.
	b := newS(t, func(c *Config) {
		c.Grain = grain
		c.Rate.MinRate = 1e7
	})
	b.Write(0, make([]byte, 60*1000))
	b.Tick(0)
	b.Outgoing()
	b.Tick(sim.Second)
	if n := len(dataOuts(b.Outgoing())); n != 19 {
		t.Errorf("tick after an idle second sent %d packets, want the two-grain burst of 19", n)
	}
}

// TestNextWakeTracksBacklog: a rate-paced backlog asks to be woken when
// the next packet's tokens have accrued, an idle fresh sender not at
// all.
func TestNextWakeTracksBacklog(t *testing.T) {
	s := newS(t, func(c *Config) {
		c.Grain = sim.Millisecond
		c.Rate.MinRate = 1e7
	})
	if _, ok := s.NextWake(); ok {
		t.Fatal("fresh sender with nothing written wants a wake-up")
	}
	s.Write(0, make([]byte, 40*1000))
	s.Tick(0)
	if sent := len(dataOuts(s.Outgoing())); sent != 9 {
		t.Fatalf("first tick sent %d packets, want the one-grain budget of 9", sent)
	}
	// 10 MB/s, 820 bytes of tokens left: the next 1020-byte packet's
	// tokens accrue 20 µs later.
	at, ok := s.NextWake()
	if !ok || at <= 0 || at > 30*sim.Microsecond {
		t.Fatalf("NextWake with a backlog = %v,%v, want the next refill about 20 µs out", at, ok)
	}
	s.Tick(at)
	if len(dataOuts(s.Outgoing())) != 1 {
		t.Error("the refill NextWake asked for did not send the next packet")
	}
}
