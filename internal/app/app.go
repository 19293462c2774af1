// Package app models the applications of the paper's experiments: the
// memory-to-memory tests ("the application was always ready") and the
// disk-to-disk tests ("slowed by I/O operations"). A Source produces the
// outgoing byte stream at the sender; a Sink rations how fast the
// receiving application drains the protocol's receive queue.
//
// Stream content is a deterministic byte pattern so that receivers can
// verify end-to-end integrity without shipping the file around.
package app

import (
	"io"

	"repro/internal/sim"
)

// PatternByte returns the stream byte at offset i: a cheap, position-
// dependent pattern with no short period.
func PatternByte(i int64) byte {
	x := uint64(i)*0x9E3779B97F4A7C15 + 0xDEADBEEF
	x ^= x >> 29
	return byte(x ^ x>>11)
}

// FillPattern writes the pattern for offsets [off, off+len(buf)).
func FillPattern(buf []byte, off int64) {
	for i := range buf {
		buf[i] = PatternByte(off + int64(i))
	}
}

// VerifyPattern checks buf against the pattern at offset off and returns
// the index of the first mismatch, or -1.
func VerifyPattern(buf []byte, off int64) int {
	for i := range buf {
		if buf[i] != PatternByte(off+int64(i)) {
			return i
		}
	}
	return -1
}

// NewPatternReader returns a reader of the n pattern bytes at offsets
// [off, off+n). Each Read continues at the next offset, so the stream
// does not depend on read sizes and VerifyPattern checks it.
func NewPatternReader(off, n int64) io.Reader {
	return io.LimitReader(&patternReader{off: off}, n)
}

type patternReader struct{ off int64 }

func (p *patternReader) Read(b []byte) (int, error) {
	FillPattern(b, p.off)
	p.off += int64(len(b))
	return len(b), nil
}

// Source produces the outgoing stream at the sender.
type Source interface {
	// Available returns how many bytes the application could hand to
	// the protocol at time now (bounded by I/O progress for disk
	// sources).
	Available(now sim.Time) int
	// Produce fills up to len(buf) bytes (no more than Available) and
	// advances the stream cursor, returning the count produced.
	Produce(now sim.Time, buf []byte) int
	// Remaining returns the bytes not yet produced; zero means the
	// application is finished and the connection can close.
	Remaining() int
}

// Sink rations application reads at a receiver.
type Sink interface {
	// Budget returns how many bytes the application is willing to read
	// at time now.
	Budget(now sim.Time) int
	// Consume records that n bytes were actually read.
	Consume(now sim.Time, n int)
}

// MemorySource is an always-ready source of size bytes (the memory-to-
// memory tests).
type MemorySource struct {
	size int64
	off  int64
}

// NewMemorySource returns a memory source of the given size.
func NewMemorySource(size int64) *MemorySource { return &MemorySource{size: size} }

// Available implements Source.
func (s *MemorySource) Available(sim.Time) int { return clampInt(s.size - s.off) }

// Produce implements Source.
func (s *MemorySource) Produce(_ sim.Time, buf []byte) int {
	n := len(buf)
	if r := clampInt(s.size - s.off); n > r {
		n = r
	}
	FillPattern(buf[:n], s.off)
	s.off += int64(n)
	return n
}

// Remaining implements Source.
func (s *MemorySource) Remaining() int { return clampInt(s.size - s.off) }

// MemorySink consumes instantly (the receiving application is always
// ready).
type MemorySink struct{}

// Budget implements Sink.
func (MemorySink) Budget(sim.Time) int { return 1 << 30 }

// Consume implements Sink.
func (MemorySink) Consume(sim.Time, int) {}

// DiskConfig parametrizes the disk I/O model: a sustained sequential
// rate plus occasional stalls ("a number of different activities in the
// operating system or I/O delays could have caused the application to
// slow", Section 5.1).
type DiskConfig struct {
	// Rate is the sustained disk bandwidth in bytes/second (a late-90s
	// disk sustains a few MB/s).
	Rate float64
	// StallEvery is the mean interval between stalls; zero disables
	// stalls.
	StallEvery sim.Time
	// StallFor is the mean stall duration.
	StallFor sim.Time
	// CapBytes bounds the accumulated I/O credit (a disk cannot "bank"
	// idle bandwidth for later; only a write-buffer's worth of burst is
	// absorbed). Zero selects 64 KiB.
	CapBytes int
	// RNG drives stall timing; required when StallEvery > 0.
	RNG *sim.RNG
}

// DefaultDiskConfig models the testbed's disks for callers that need a
// single profile; the source/sink-specific variants below are what the
// experiments use.
func DefaultDiskConfig(rng *sim.RNG) DiskConfig {
	return DefaultDiskSinkConfig(rng)
}

// DefaultDiskSourceConfig models sequential reads on the sending host:
// fast enough to keep a 10 Mbps link busy, with occasional OS-induced
// stalls.
func DefaultDiskSourceConfig(rng *sim.RNG) DiskConfig {
	return DiskConfig{
		Rate:       2 << 20, // 2 MB/s sustained sequential reads
		StallEvery: 200 * sim.Millisecond,
		StallFor:   20 * sim.Millisecond,
		RNG:        rng,
	}
}

// DefaultDiskSinkConfig models writes on a receiving host: sustained
// bandwidth just below the 10 Mbps line rate, plus stalls. The receiving
// application therefore falls behind, the kernel buffer fills, and the
// receiver's rate requests throttle the sender — the behaviour behind
// the disk-test feedback activity of Figure 11.
func DefaultDiskSinkConfig(rng *sim.RNG) DiskConfig {
	return DiskConfig{
		Rate:       1400 << 10, // just above a 10 Mbps line: keeps up on average
		StallEvery: 100 * sim.Millisecond,
		StallFor:   40 * sim.Millisecond,
		RNG:        rng,
	}
}

// ioBudget is the common progress meter for disk sources and sinks: an
// I/O budget that grows at Rate, interrupted by random stalls.
type ioBudget struct {
	cfg       DiskConfig
	started   bool
	lastAt    sim.Time
	credit    float64 // accumulated I/O budget in bytes
	nextStall sim.Time
	stallEnd  sim.Time
}

func newIOBudget(cfg DiskConfig) ioBudget {
	if cfg.CapBytes <= 0 {
		cfg.CapBytes = 64 << 10
	}
	return ioBudget{cfg: cfg}
}

// advance accrues budget to now, honoring stalls.
func (b *ioBudget) advance(now sim.Time) {
	if !b.started {
		b.started = true
		b.lastAt = now
		if b.cfg.StallEvery > 0 && b.cfg.RNG != nil {
			b.nextStall = now + b.cfg.RNG.Exp(b.cfg.StallEvery)
		}
		return
	}
	for b.lastAt < now {
		// Accrue in segments split at stall boundaries.
		segEnd := now
		inStall := b.lastAt < b.stallEnd
		if inStall && b.stallEnd < segEnd {
			segEnd = b.stallEnd
		}
		if !inStall && b.nextStall > 0 && b.nextStall > b.lastAt && b.nextStall < segEnd {
			segEnd = b.nextStall
		}
		if !inStall {
			b.credit += b.cfg.Rate * (segEnd - b.lastAt).Seconds()
		}
		b.lastAt = segEnd
		if b.nextStall > 0 && b.lastAt >= b.nextStall && b.lastAt >= b.stallEnd {
			// Enter a stall.
			b.stallEnd = b.lastAt + b.cfg.RNG.Exp(b.cfg.StallFor)
			b.nextStall = b.stallEnd + b.cfg.RNG.Exp(b.cfg.StallEvery)
		}
	}
	if b.credit > float64(b.cfg.CapBytes) {
		b.credit = float64(b.cfg.CapBytes)
	}
}

func (b *ioBudget) take(n int) { b.credit -= float64(n) }

func (b *ioBudget) available() int {
	if b.credit <= 0 {
		return 0
	}
	return int(b.credit)
}

// DiskSource reads the stream from a modeled disk.
type DiskSource struct {
	budget ioBudget
	size   int64
	off    int64
}

// NewDiskSource returns a disk-backed source of the given size.
func NewDiskSource(size int64, cfg DiskConfig) *DiskSource {
	return &DiskSource{budget: newIOBudget(cfg), size: size}
}

// Available implements Source.
func (s *DiskSource) Available(now sim.Time) int {
	s.budget.advance(now)
	n := s.budget.available()
	if r := clampInt(s.size - s.off); n > r {
		n = r
	}
	return n
}

// Produce implements Source.
func (s *DiskSource) Produce(now sim.Time, buf []byte) int {
	n := len(buf)
	if a := s.Available(now); n > a {
		n = a
	}
	FillPattern(buf[:n], s.off)
	s.off += int64(n)
	s.budget.take(n)
	return n
}

// Remaining implements Source.
func (s *DiskSource) Remaining() int { return clampInt(s.size - s.off) }

// DiskSink writes the received stream to a modeled disk.
type DiskSink struct {
	budget ioBudget
}

// NewDiskSink returns a disk-backed sink.
func NewDiskSink(cfg DiskConfig) *DiskSink {
	return &DiskSink{budget: newIOBudget(cfg)}
}

// Budget implements Sink.
func (s *DiskSink) Budget(now sim.Time) int {
	s.budget.advance(now)
	return s.budget.available()
}

// Consume implements Sink.
func (s *DiskSink) Consume(_ sim.Time, n int) { s.budget.take(n) }

func clampInt(v int64) int {
	if v < 0 {
		return 0
	}
	if v > 1<<30 {
		return 1 << 30
	}
	return int(v)
}
