// Package rate implements the rate-based half of RMC/H-RMC flow control
// (Section 2, "Flow Control"): a current transmission rate advertised in
// every outgoing packet, grown with slow-start and congestion-avoidance
// phases like TCP [Jacobson & Karels, SIGCOMM '88], halved on NAKs and
// warning rate requests, and stopped entirely for two round trips by an
// urgent rate request, after which transmission restarts from the minimum
// rate in slow start.
//
// The controller doubles as the transmitter's token bucket: the transmit
// timer asks for an allowance each grain and spends it as packets go out.
package rate

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Phase is the congestion-control phase.
type Phase int

const (
	// SlowStart doubles the rate every round trip.
	SlowStart Phase = iota
	// CongestionAvoidance increases the rate linearly.
	CongestionAvoidance
	// Stopped halts forward transmission (urgent rate request); the
	// controller leaves Stopped by itself when the stop deadline passes.
	Stopped
)

func (p Phase) String() string {
	switch p {
	case SlowStart:
		return "slow-start"
	case CongestionAvoidance:
		return "congestion-avoidance"
	case Stopped:
		return "stopped"
	}
	return "unknown"
}

// Config parametrizes the controller.
type Config struct {
	// MinRate is the slow-start floor in bytes/second.
	MinRate float64
	// MaxRate caps the transmission rate in bytes/second (for example
	// the line rate).
	MaxRate float64
	// MSS is the segment payload size, used for the linear increase.
	MSS int
	// Grain is the transmit timer's clock grain; the token bucket holds
	// at most two grains of the current rate. Zero means kernel.Jiffy.
	Grain sim.Time
}

// DefaultConfig mirrors the kernel implementation: the minimum rate is
// one segment per 10 ms jiffy — the paper's transmitter cannot pace
// slower without skipping ticks — and the ceiling is 1 Gb/s (effectively
// uncapped; the network limits throughput).
func DefaultConfig() Config {
	return Config{MinRate: 140e3, MaxRate: 125e6, MSS: 1400}
}

func (c *Config) sanitize() {
	if c.MSS <= 0 {
		c.MSS = 1400
	}
	if c.MinRate <= 0 {
		c.MinRate = 16 << 10
	}
	if c.MaxRate < c.MinRate {
		c.MaxRate = c.MinRate
	}
	if c.Grain <= 0 {
		c.Grain = kernel.Jiffy
	}
}

// Controller is the sender's rate state. Create with New.
type Controller struct {
	cfg      Config
	rate     float64 // current transmission rate, bytes/second
	ssthresh float64
	phase    Phase
	stopped  sim.Time // when Stopped ends

	lastGrow sim.Time // last growth step
	lastCut  sim.Time // last halving, to bound cuts to one per RTT

	// Token bucket.
	tokens     float64
	lastRefill sim.Time
	refillInit bool
}

// New returns a controller at the minimum rate in slow start, as at the
// beginning of data transmission for a new connection.
func New(cfg Config) *Controller {
	cfg.sanitize()
	return &Controller{
		cfg:      cfg,
		rate:     cfg.MinRate,
		ssthresh: cfg.MaxRate,
		phase:    SlowStart,
	}
}

// Rate returns the current transmission rate in bytes/second; it is zero
// while stopped by an urgent request.
func (c *Controller) Rate(now sim.Time) float64 {
	c.maybeResume(now)
	if c.phase == Stopped {
		return 0
	}
	return c.rate
}

// Advertised returns the rate advertisement for outgoing packet headers.
// The advertisement reflects the configured rate even while transmission
// is urgently stopped, since the receivers use it for their WARNBUF rule
// once transmission resumes.
func (c *Controller) Advertised() uint32 {
	if c.rate >= float64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(c.rate)
}

// Phase returns the current phase, resolving an expired stop.
func (c *Controller) Phase(now sim.Time) Phase {
	c.maybeResume(now)
	return c.phase
}

func (c *Controller) maybeResume(now sim.Time) {
	if c.phase == Stopped && now >= c.stopped {
		// Restart from the minimum rate with slow start, per the paper:
		// "any time following an urgent rate request, the sender sets the
		// transmission rate to a minimum value and uses slow start".
		c.phase = SlowStart
		c.rate = c.cfg.MinRate
		c.lastGrow = now
	}
}

// Ceiling returns the current MaxRate ceiling in bytes/second.
func (c *Controller) Ceiling() float64 { return c.cfg.MaxRate }

// MinRate returns the configured rate floor in bytes/second.
func (c *Controller) MinRate() float64 { return c.cfg.MinRate }

// SetCeiling re-points the MaxRate ceiling at runtime; a session's
// fair-share governor uses it to apportion one line rate among many
// concurrent flows. The ceiling is floored at MinRate (the
// one-packet-per-jiffy pacing floor), and the current rate and ssthresh
// are clamped down immediately so an over-budget flow backs off within
// a tick rather than a round trip.
func (c *Controller) SetCeiling(max float64) {
	if max < c.cfg.MinRate {
		max = c.cfg.MinRate
	}
	c.cfg.MaxRate = max
	if c.ssthresh > max {
		c.ssthresh = max
	}
	if c.rate > max {
		c.rate = max
	}
}

// MaybeGrow applies at most one growth step per round trip: doubling in
// slow start until ssthresh, then a linear MSS-per-RTT increase. The
// transmitter calls this from its transmit tick while it has data to
// send; growth during idle periods is suppressed by that discipline.
func (c *Controller) MaybeGrow(now sim.Time, rtt sim.Time) {
	c.maybeResume(now)
	if c.phase == Stopped {
		return
	}
	if rtt <= 0 {
		rtt = sim.Millisecond
	}
	if now-c.lastGrow < rtt {
		return
	}
	c.lastGrow = now
	switch c.phase {
	case SlowStart:
		c.rate *= 2
		if c.rate >= c.ssthresh {
			c.rate = c.ssthresh
			c.phase = CongestionAvoidance
		}
	case CongestionAvoidance:
		// One MSS per RTT, expressed as a rate increment.
		c.rate += float64(c.cfg.MSS) / rtt.Seconds()
	}
	if c.rate > c.cfg.MaxRate {
		c.rate = c.cfg.MaxRate
	}
}

// OnCongestion reacts to a NAK or a warning rate request: the rate is cut
// in half and growth switches to the linear phase. suggested, when
// non-zero, is the receiver's advertised acceptable rate (from a CONTROL
// packet) and lower-bounds the cut. Cuts are limited to one per round
// trip so a burst of feedback from many receivers counts once, mirroring
// TCP's one-cut-per-window rule.
func (c *Controller) OnCongestion(now sim.Time, rtt sim.Time, suggested float64) {
	c.maybeResume(now)
	if c.phase == Stopped {
		return
	}
	if now-c.lastCut < rtt && c.lastCut != 0 {
		return
	}
	c.lastCut = now
	target := c.rate / 2
	if suggested > 0 && suggested < target {
		target = suggested
	}
	if target < c.cfg.MinRate {
		target = c.cfg.MinRate
	}
	c.rate = target
	c.ssthresh = target
	c.phase = CongestionAvoidance
	c.lastGrow = now
	c.tokens = 0
}

// OnUrgent reacts to an urgent rate request: forward transmission stops
// for two round trips regardless of the advertised rate.
func (c *Controller) OnUrgent(now sim.Time, rtt sim.Time) {
	if rtt <= 0 {
		rtt = sim.Millisecond
	}
	until := now + 2*rtt
	if c.phase == Stopped {
		if until > c.stopped {
			c.stopped = until
		}
		return
	}
	c.phase = Stopped
	c.stopped = until
	c.ssthresh = c.rate / 2
	if c.ssthresh < c.cfg.MinRate {
		c.ssthresh = c.cfg.MinRate
	}
	c.tokens = 0
	c.lastCut = now
}

// Allowance refills the token bucket to now and returns the bytes that
// may be transmitted immediately. The bucket is capped at two grains of
// the current rate (and never below one MSS while running) so the sender
// can use a full tick's budget but cannot accumulate an unbounded burst.
func (c *Controller) Allowance(now sim.Time) int {
	c.maybeResume(now)
	r := c.Rate(now)
	if !c.refillInit {
		c.lastRefill = now
		c.refillInit = true
	}
	dt := now - c.lastRefill
	c.lastRefill = now
	if r <= 0 {
		c.tokens = 0
		return 0
	}
	c.tokens += r * dt.Seconds()
	// The burst cap must admit at least one full packet (header
	// included) or low rates would deadlock, hence the 2×MSS floor.
	if burst := c.burst(r); c.tokens > burst {
		c.tokens = burst
	}
	return int(c.tokens)
}

// burst is the token-bucket cap at rate r.
func (c *Controller) burst(r float64) float64 {
	burst := r * (2 * c.cfg.Grain).Seconds()
	if burst < float64(2*c.cfg.MSS) {
		burst = float64(2 * c.cfg.MSS)
	}
	return burst
}

// ReadyAt returns when the bucket, refilled at the current rate from the
// last Allowance call, will hold n bytes: the earliest time a transmit
// tick can send an n-byte packet. While urgently stopped it returns the
// end of the stop.
func (c *Controller) ReadyAt(n int) sim.Time {
	if c.phase == Stopped {
		return c.stopped
	}
	need := float64(n) - c.tokens
	if need <= 0 || !c.refillInit {
		return c.lastRefill
	}
	if b := c.burst(c.rate); float64(n) > b {
		need = b - c.tokens
	}
	return c.lastRefill + sim.Time(need/c.rate*float64(sim.Second)) + 1
}

// Spend consumes n bytes of allowance.
func (c *Controller) Spend(n int) {
	c.tokens -= float64(n)
	if c.tokens < 0 {
		c.tokens = 0
	}
}

// StoppedUntil returns the end of the current urgent stop, if any.
func (c *Controller) StoppedUntil() (sim.Time, bool) {
	if c.phase == Stopped {
		return c.stopped, true
	}
	return 0, false
}
