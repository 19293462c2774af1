package app

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPatternDeterministicAndVaried(t *testing.T) {
	a := make([]byte, 1024)
	b := make([]byte, 1024)
	FillPattern(a, 0)
	FillPattern(b, 0)
	if !bytes.Equal(a, b) {
		t.Fatal("pattern not deterministic")
	}
	// Offset-dependence: shifted fills differ.
	FillPattern(b, 1)
	if bytes.Equal(a, b) {
		t.Fatal("pattern ignores offset")
	}
	// No trivial short period.
	if bytes.Equal(a[:256], a[256:512]) {
		t.Error("pattern repeats with period 256")
	}
	if i := VerifyPattern(a, 0); i != -1 {
		t.Errorf("VerifyPattern flagged clean data at %d", i)
	}
	a[100] ^= 0xFF
	if i := VerifyPattern(a, 0); i != 100 {
		t.Errorf("VerifyPattern found corruption at %d, want 100", i)
	}
}

// Property: filling in two chunks equals filling at once.
func TestPropPatternChunked(t *testing.T) {
	f := func(off int64, split uint8) bool {
		if off < 0 {
			off = -off
		}
		whole := make([]byte, 256)
		FillPattern(whole, off)
		parts := make([]byte, 256)
		k := int(split)
		FillPattern(parts[:k], off)
		FillPattern(parts[k:], off+int64(k))
		return bytes.Equal(whole, parts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPatternReaderChunkIndependent reads the same stretch of the
// pattern in uneven chunk sizes: the bytes must not depend on them, must
// stop at n, and must verify at the reader's starting offset.
func TestPatternReaderChunkIndependent(t *testing.T) {
	const off, n = 12345, 10000
	for _, chunk := range []int{1, 7, 4096, 1 << 16} {
		r := NewPatternReader(off, n)
		var got []byte
		buf := make([]byte, chunk)
		for {
			k, err := r.Read(buf)
			got = append(got, buf[:k]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != n {
			t.Fatalf("chunk %d: read %d bytes, want %d", chunk, len(got), n)
		}
		if i := VerifyPattern(got, off); i != -1 {
			t.Fatalf("chunk %d: pattern mismatch at byte %d", chunk, i)
		}
	}
}

func TestMemorySource(t *testing.T) {
	s := NewMemorySource(1000)
	if s.Available(0) != 1000 || s.Remaining() != 1000 {
		t.Fatal("fresh source wrong")
	}
	buf := make([]byte, 600)
	if n := s.Produce(0, buf); n != 600 {
		t.Fatalf("Produce = %d", n)
	}
	if VerifyPattern(buf, 0) != -1 {
		t.Error("produced bytes do not match the pattern")
	}
	if s.Remaining() != 400 {
		t.Errorf("Remaining = %d", s.Remaining())
	}
	// Over-read clamps at the end and content continues the stream.
	n := s.Produce(0, buf)
	if n != 400 {
		t.Fatalf("tail Produce = %d", n)
	}
	if VerifyPattern(buf[:n], 600) != -1 {
		t.Error("tail bytes break the stream pattern")
	}
	if s.Available(0) != 0 || s.Remaining() != 0 {
		t.Error("exhausted source still reports data")
	}
}

func TestMemorySink(t *testing.T) {
	var s MemorySink
	if s.Budget(0) <= 0 {
		t.Error("memory sink has no budget")
	}
	s.Consume(0, 1<<20) // must not affect future budget
	if s.Budget(0) <= 0 {
		t.Error("memory sink budget exhausted")
	}
}

func TestDiskSourceRateLimit(t *testing.T) {
	cfg := DiskConfig{Rate: 1 << 20} // 1 MB/s, no stalls
	s := NewDiskSource(10<<20, cfg)
	if got := s.Available(0); got != 0 {
		t.Fatalf("available at t=0: %d", got)
	}
	// After 100 ms: 100 KB accrued, capped at CapBytes (64 KB default).
	if got := s.Available(100 * sim.Millisecond); got != 64<<10 {
		t.Fatalf("available after 100ms = %d, want capped 64K", got)
	}
	buf := make([]byte, 200<<10)
	n := s.Produce(100*sim.Millisecond, buf)
	if n != 64<<10 {
		t.Fatalf("Produce = %d, want 64K", n)
	}
	if VerifyPattern(buf[:n], 0) != -1 {
		t.Error("disk source broke the pattern")
	}
	// Credit was consumed; immediately after there is nothing.
	if got := s.Available(100 * sim.Millisecond); got != 0 {
		t.Errorf("available right after produce = %d", got)
	}
	// 10 ms later: 1 MiB/s × 10 ms ≈ 10486 bytes.
	if got := s.Available(110 * sim.Millisecond); got < 10300 || got > 10600 {
		t.Errorf("available after 10ms more = %d, want ≈10486", got)
	}
}

func TestDiskSourceEndOfFile(t *testing.T) {
	s := NewDiskSource(5000, DiskConfig{Rate: 1 << 30})
	buf := make([]byte, 10000)
	n := s.Produce(sim.Second, buf)
	if n > 5000 {
		t.Fatalf("produced %d of a 5000-byte file", n)
	}
	total := n
	for i := 0; i < 10 && total < 5000; i++ {
		total += s.Produce(sim.Second*sim.Time(i+2), buf)
	}
	if total != 5000 || s.Remaining() != 0 {
		t.Errorf("total produced %d, remaining %d", total, s.Remaining())
	}
}

func TestDiskSinkBudgetAndStalls(t *testing.T) {
	rng := sim.NewRNG(7)
	cfg := DiskConfig{
		Rate:       1 << 20,
		StallEvery: 50 * sim.Millisecond,
		StallFor:   20 * sim.Millisecond,
		RNG:        rng,
	}
	s := NewDiskSink(cfg)
	// Drive one simulated second in 1 ms steps, consuming all budget;
	// total consumed must be well below the stall-free 1 MB but not
	// zero.
	var consumed int
	for tms := 1; tms <= 1000; tms++ {
		now := sim.Time(tms) * sim.Millisecond
		b := s.Budget(now)
		s.Consume(now, b)
		consumed += b
	}
	stallFree := 1 << 20
	if consumed == 0 {
		t.Fatal("sink consumed nothing")
	}
	if consumed >= stallFree {
		t.Errorf("consumed %d, expected stalls to cost throughput (< %d)", consumed, stallFree)
	}
	if float64(consumed) < 0.4*float64(stallFree) {
		t.Errorf("consumed %d, stalls ate too much (expected ≈ 5/7 of %d)", consumed, stallFree)
	}
}

func TestDiskBudgetCapPreventsBanking(t *testing.T) {
	s := NewDiskSink(DiskConfig{Rate: 1 << 20, CapBytes: 32 << 10})
	s.Budget(0)
	// An hour of idle must bank at most the cap.
	if got := s.Budget(sim.Time(3600) * sim.Second); got != 32<<10 {
		t.Errorf("banked %d after long idle, want cap 32K", got)
	}
}

// Property: however advance times are interleaved, accrued budget never
// exceeds cap and never goes negative, and consumption is conserved.
func TestPropDiskBudgetBounds(t *testing.T) {
	f := func(steps []uint16, takes []uint16, seed uint64) bool {
		rng := sim.NewRNG(seed)
		s := NewDiskSink(DiskConfig{
			Rate: 512 << 10, StallEvery: 30 * sim.Millisecond,
			StallFor: 10 * sim.Millisecond, CapBytes: 16 << 10, RNG: rng,
		})
		now := sim.Time(0)
		for i, st := range steps {
			now += sim.Time(st) * sim.Microsecond
			b := s.Budget(now)
			if b < 0 || b > 16<<10 {
				return false
			}
			if i < len(takes) {
				take := int(takes[i])
				if take > b {
					take = b
				}
				s.Consume(now, take)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDefaultConfigs(t *testing.T) {
	rng := sim.NewRNG(1)
	src := DefaultDiskSourceConfig(rng)
	sink := DefaultDiskSinkConfig(rng)
	if src.Rate <= sink.Rate {
		t.Error("sequential reads should outpace writes in the disk model")
	}
	lineRate10Mbps := 1.25e6
	if sink.Rate < lineRate10Mbps {
		t.Error("sink must keep up with a 10 Mbps line on average")
	}
	if DefaultDiskConfig(rng).Rate != sink.Rate {
		t.Error("DefaultDiskConfig should alias the sink profile")
	}
}
