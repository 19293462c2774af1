//go:build linux

package session

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/sim"
	"repro/internal/transport"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// openIdle opens n sender and n receiver flows that never carry data.
// A non-zero grain overrides the session's.
func openIdle(t *testing.T, s *Session, n int, grain sim.Time) {
	t.Helper()
	hub := transport.NewHub()
	snd, rcv := hub.Endpoint(), hub.Endpoint()
	for i := 0; i < n; i++ {
		sp, rp := uint16(1000+i), uint16(3000+i)
		if _, err := s.OpenSender(snd, sender.Config{LocalPort: sp, RemotePort: rp, Grain: grain}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.OpenReceiver(rcv, receiver.Config{LocalPort: rp, RemotePort: sp, Grain: grain}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIdleFlowsCostNoMoreThanJiffyTicker: 500 sender and 500 receiver
// flows idle for 3 s on the 1 ms deadline-driven loop must cost no more
// CPU than the same flows, on the paper's 10 ms grain, driven by a
// fixed 10 ms ticker that ticks every flow (the loop this package used
// to run).
func TestIdleFlowsCostNoMoreThanJiffyTicker(t *testing.T) {
	if testing.Short() {
		t.Skip("measures 6 s of idle CPU")
	}
	const (
		flows  = 500
		window = 3 * time.Second
	)

	deadline := New(Config{TickInterval: time.Millisecond})
	defer deadline.Abort()
	openIdle(t, deadline, flows, 0)
	time.Sleep(100 * time.Millisecond) // let the opens' first wake-ups settle
	c0 := cpuTime(t)
	time.Sleep(window)
	deadlineCPU := cpuTime(t) - c0
	deadline.Abort()

	// The reference: a session whose own loop never fires (hour-long
	// grain), its flows on the jiffy grain, ticked by a fixed ticker.
	fixed := New(Config{TickInterval: time.Hour})
	defer fixed.Abort()
	openIdle(t, fixed, flows, kernel.Jiffy)
	fixed.mu.Lock()
	all := append([]anyFlow(nil), fixed.flows...)
	fixed.mu.Unlock()
	tick := func(now sim.Time) {
		for _, f := range all {
			switch f := f.(type) {
			case *SenderFlow:
				f.mu.Lock()
				f.m.Tick(now)
				f.flushLocked()
				f.cond.Broadcast()
				f.mu.Unlock()
			case *ReceiverFlow:
				f.mu.Lock()
				f.m.Advance(now)
				f.flushLocked()
				f.cond.Broadcast()
				f.mu.Unlock()
			}
		}
	}
	c0 = cpuTime(t)
	start := time.Now()
	for next := start; next.Sub(start) < window; next = next.Add(time.Duration(kernel.Jiffy)) {
		time.Sleep(time.Until(next))
		tick(fixed.now())
	}
	fixedCPU := cpuTime(t) - c0

	t.Logf("idle CPU for %d+%d flows over %v: 1 ms deadline loop %v (%.3f CPU-s/s), fixed 10 ms ticker %v (%.3f CPU-s/s)",
		flows, flows, window, deadlineCPU, deadlineCPU.Seconds()/window.Seconds(), fixedCPU, fixedCPU.Seconds()/window.Seconds())
	if deadlineCPU > fixedCPU {
		t.Errorf("1 ms deadline loop used %v of CPU, more than the fixed 10 ms ticker's %v", deadlineCPU, fixedCPU)
	}
}
