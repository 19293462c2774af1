package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/transport"
)

// run is one measured pass of a workload: its inputs (seed, length,
// tracer) and everything the pass observed.
type run struct {
	seed    int64
	seconds time.Duration
	rng     *rand.Rand
	tr      *tracer // nil: untraced

	tally   ioTally
	ports   portXfer
	parents sync.Map

	mu  sync.Mutex
	out outcome

	// delivered counts bytes delivered bit-exact to every receiver of
	// their transfer so far in the measured phase.
	delivered atomic.Int64
	// opsCPU is the process CPU time when the last operation ended.
	opsCPU time.Duration

	pool0       packet.PoolCounters
	start, stop counters
}

// outcome is what a workload reports about its measured phase.
type outcome struct {
	setup     []float64     // seconds, one per set-up
	wall      time.Duration // from the start of the phase to the end of its last operation
	bytes     int64         // delivered bit-exact to every receiver over the phase
	xfer      []float64     // seconds, one per completed operation
	attempted int
	failed    int
	corrupt   []string
	agg       stats.Aggregate
	firstByte []float64 // seconds from the start of a transfer to its first byte read
	genLate   time.Duration
	poolLeft  int64 // packets checked out of the pool after teardown
}

// counters is a snapshot of the process-wide counters a phase is
// measured between.
type counters struct {
	at   time.Time
	cpu  time.Duration
	io   transport.IOSnapshot
	pool packet.PoolCounters
	mem  runtime.MemStats
}

func snapshot() counters {
	c := counters{at: time.Now(), io: transport.IOStats(), pool: packet.PoolStats()}
	c.cpu = cpuTime()
	runtime.ReadMemStats(&c.mem)
	return c
}

func newRun(seed int64, seconds time.Duration, tc *tracer) *run {
	return &run{seed: seed, seconds: seconds, rng: rand.New(rand.NewSource(seed)), tr: tc, pool0: packet.PoolStats()}
}

// wrap puts tr behind the timing wrapper on traced runs; untraced runs
// hand the session the transport itself.
func (r *run) wrap(tr transport.Transport) transport.Transport {
	if r.tr == nil {
		return tr
	}
	return wrap(tr, r.tr, &r.tally, &r.ports, &r.parents)
}

// beginPhase marks the end of set-up and the start of measurement.
func (r *run) beginPhase() { r.start = snapshot() }

// opsDone marks the end of the phase's last operation: wall time, CPU
// time and the byte count end here, before teardown.
func (r *run) opsDone() {
	r.opsCPU = cpuTime()
	r.out.wall = time.Since(r.start.at)
	r.out.bytes = r.delivered.Load()
}

// cpuPerGB is process CPU seconds (user+sys) from the start of the
// phase to the end of its last operation, per GB delivered.
func (r *run) cpuPerGB() float64 {
	return ratio((r.opsCPU - r.start.cpu).Seconds(), float64(r.out.bytes)/1e9)
}

// endPhase marks the end of measurement, after every flow and session
// is torn down.
func (r *run) endPhase() {
	r.stop = snapshot()
	r.out.poolLeft = (r.stop.pool.Gets - r.stop.pool.Puts) - (r.pool0.Gets - r.pool0.Puts)
}

// setupReps is how many times a run sets its stack up; setup_s is the
// median.
const setupReps = 51

// timeSetup runs set-up setupReps times, timing each, and keeps the
// last stack; every earlier one is torn down. Set-up is cheap next to
// the measured phase, so its median over many tries is what the result
// reports.
func timeSetup[S any](r *run, setup func(i int) (S, error), teardown func(S)) (S, error) {
	var s S
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		st, err := setup(i)
		if err != nil {
			return s, err
		}
		r.out.setup = append(r.out.setup, time.Since(t0).Seconds())
		if i < setupReps-1 {
			teardown(st)
		} else {
			s = st
		}
	}
	return s, nil
}

func (r *run) addXfer(d time.Duration) {
	r.mu.Lock()
	r.out.xfer = append(r.out.xfer, d.Seconds())
	r.mu.Unlock()
}

func (r *run) addFirstByte(d time.Duration) {
	r.mu.Lock()
	r.out.firstByte = append(r.out.firstByte, d.Seconds())
	r.mu.Unlock()
}

func (r *run) corrupt(msg string) {
	r.mu.Lock()
	r.out.corrupt = append(r.out.corrupt, msg)
	r.mu.Unlock()
}

func (r *run) addStats(s *stats.Sender, rv *stats.Receiver) {
	r.mu.Lock()
	if s != nil {
		r.out.agg.AddSender(s)
	}
	if rv != nil {
		r.out.agg.AddReceiver(rv)
	}
	r.mu.Unlock()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation, 0 for
// no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
