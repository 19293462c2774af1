package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/control"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/udpmcast"
)

// The churn workload: an open loop of Poisson arrivals at churnRate per
// second. Each arrival admits a receiver and a sender for a 64 KiB
// object through control.Manager over a control.ShardedDialer with two
// loopback udpmcast.GroupTransport shards on one data port, waits for
// the receiver to finish, and forgets both flows — a daemon serving
// ad-hoc transfers, each on a fresh group address. The arrival count is
// fixed at churnRate × seconds and the arrival times are uniform over
// the window, which is a Poisson process conditioned on its count. An
// arrival's latency runs from when it was due to its last byte read.
const (
	churnShards   = 2
	churnObject   = 64 << 10
	churnRate     = 5.0 // arrivals per second; a transfer takes about 1 s, so about 5 run at once
	churnDeadline = 20 * time.Second
)

type churnStack struct {
	sess   *session.Session
	shards []transport.GroupTransport
	mgr    *control.Manager
}

func (s *churnStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), churnDeadline)
	defer cancel()
	_ = s.mgr.Shutdown(ctx) // every flow is already forgotten; nothing is left to drain
	s.sess.Abort()
	for _, sh := range s.shards {
		sh.Close()
	}
}

// churnSink verifies a receiver's stream as the control plane's pump
// writes it, and marks when its first and last bytes arrived.
type churnSink struct {
	delivered   *atomic.Int64
	v           verifier
	first, last time.Time
	err         error
	done        chan struct{}
}

func (k *churnSink) Write(p []byte) (int, error) {
	now := time.Now()
	if k.first.IsZero() {
		k.first = now
	}
	if err := k.v.check(p); err != nil {
		k.err = err
		return 0, err
	}
	k.delivered.Add(int64(len(p)))
	if k.v.off == churnObject {
		k.last = now
	}
	return len(p), nil
}

func (k *churnSink) Close() error {
	close(k.done)
	return nil
}

// arrival is one admission request of the open loop.
type arrival struct {
	i     int
	due   time.Time
	group string
	sink  *churnSink
}

func runChurn(r *run) error {
	dataPort := 40000 + r.rng.Intn(20000)
	n := int(math.Round(churnRate * r.seconds.Seconds()))
	offsets := make([]float64, n)
	for i := range offsets {
		offsets[i] = r.rng.Float64() * r.seconds.Seconds()
	}
	sort.Float64s(offsets)
	groups := make([]string, n)
	seen := make(map[string]bool, n)
	for i := range groups {
		for groups[i] == "" || seen[groups[i]] {
			groups[i] = fmt.Sprintf("239.%d.%d.%d:%d", 128+r.rng.Intn(64), r.rng.Intn(256), 1+r.rng.Intn(254), dataPort)
		}
		seen[groups[i]] = true
	}

	var mu sync.Mutex
	sinks := make(map[string]*churnSink)
	setup := func(i int) (*churnStack, error) {
		// The measured (last) stack's shards sit on the data port every
		// group address names; the earlier tries use the ports above it.
		s := &churnStack{sess: session.New(session.Config{SendPollers: churnShards})}
		for k := 0; k < churnShards; k++ {
			gt, err := udpmcast.NewGroupTransport(udpmcast.GroupConfig{Port: dataPort + setupReps - 1 - i, Loopback: true})
			if err != nil {
				s.sess.Abort()
				for _, sh := range s.shards {
					sh.Close()
				}
				return nil, err
			}
			s.shards = append(s.shards, r.wrap(gt).(transport.GroupTransport))
		}
		d, err := control.NewShardedDialer(s.shards)
		if err != nil {
			return nil, err
		}
		s.mgr = control.NewManager(control.ManagerConfig{
			Session: s.sess,
			Dialer:  d,
			OpenSource: func(spec control.FlowSpec) (io.ReadCloser, error) {
				mu.Lock()
				k := sinks[spec.Group]
				mu.Unlock()
				buf := make([]byte, churnObject)
				k.v.src.fill(buf, 0)
				return io.NopCloser(bytes.NewReader(buf)), nil
			},
			OpenSink: func(spec control.FlowSpec) (io.WriteCloser, error) {
				mu.Lock()
				defer mu.Unlock()
				return sinks[spec.Group], nil
			},
		})
		return s, nil
	}
	s, err := timeSetup(r, setup, (*churnStack).close)
	if err != nil {
		return fmt.Errorf("churn: set-up: %w", err)
	}

	r.beginPhase()
	start := time.Now()
	var wg sync.WaitGroup
	var failed int
	var late time.Duration
	for i := 0; i < n; i++ {
		a := &arrival{i: i + 1, due: start.Add(time.Duration(offsets[i] * float64(time.Second))), group: groups[i]}
		a.sink = &churnSink{delivered: &r.delivered, v: verifier{src: newStream(r.seed, uint64(a.i))}, done: make(chan struct{})}
		mu.Lock()
		sinks[a.group] = a.sink
		mu.Unlock()
		time.Sleep(time.Until(a.due))
		late = max(late, time.Since(a.due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok := r.churnArrival(s.mgr, a)
			mu.Lock()
			defer mu.Unlock()
			if !ok {
				failed++
			}
		}()
	}
	wg.Wait()
	r.opsDone()
	r.out.attempted = n
	r.out.failed = failed
	r.out.genLate = late
	s.close()
	r.endPhase()
	return nil
}

// churnArrival admits one receiver+sender pair, waits for the receiver
// to finish (or the deadline), and forgets both flows. It reports
// whether the object arrived whole and bit-exact.
func (r *run) churnArrival(mgr *control.Manager, a *arrival) bool {
	x := int32(a.i)
	sp, rp := uint16(1024+2*(a.i%30000)), uint16(1025+2*(a.i%30000))
	r.ports[sp].Store(x)
	r.ports[rp].Store(x)
	name := fmt.Sprintf("a%d", a.i)
	rid, err := r.admit(mgr, x, control.FlowSpec{
		Name: name + "-recv", Group: a.group, Role: control.RoleRecv, LocalPort: rp, PeerPort: sp,
	})
	if err != nil {
		return false // refused: the shard could not join the group
	}
	sendAt := time.Now()
	sid, err := r.admit(mgr, x, control.FlowSpec{
		Name: name + "-send", Group: a.group, Role: control.RoleSend, Size: churnObject, Receivers: 1,
		LocalPort: sp, PeerPort: rp,
	})
	deadline := a.due.Add(churnDeadline)
	if err != nil {
		_ = mgr.Abort(rid)
		r.settle(mgr, x, rid, deadline)
		return false
	}
	ok := true
	select {
	case <-a.sink.done:
	case <-time.After(time.Until(deadline)):
		ok = false
		_ = mgr.Abort(rid)
		_ = mgr.Abort(sid)
		<-a.sink.done
	}
	r.settle(mgr, x, sid, deadline)
	r.settle(mgr, x, rid, deadline)
	k := a.sink
	if k.err != nil {
		r.corrupt(fmt.Sprintf("churn arrival %d: %v", a.i, k.err))
		return false
	}
	if !k.first.IsZero() {
		r.addFirstByte(k.first.Sub(sendAt))
	}
	if !ok || k.last.IsZero() {
		return false
	}
	r.addXfer(k.last.Sub(a.due))
	return true
}

// admit is Manager.Admit inside a control.admit span; the shard's Join
// or Register becomes its child.
func (r *run) admit(mgr *control.Manager, x int32, spec control.FlowSpec) (int, error) {
	id, t0 := r.tr.begin()
	if r.tr != nil {
		r.parents.Store(spec.Group, admitCtx{span: id, xfer: x})
	}
	st, err := mgr.Admit(spec)
	r.tr.end(id, kAdmit, x, 0, t0)
	return st.ID, err
}

// settle waits for a flow to reach a terminal state (aborting it once
// the deadline has passed), keeps its final counters, and forgets it.
func (r *run) settle(mgr *control.Manager, x int32, id int, deadline time.Time) {
	aborted := false
	for {
		sid, t0 := r.tr.begin()
		st, err := mgr.Status(id)
		r.tr.end(sid, kStatus, x, 0, t0)
		if err != nil {
			return
		}
		if st.State == control.StateDone || st.State == control.StateClosed || st.State == control.StateFailed {
			r.addStats(st.Sender, st.Receiver)
			break
		}
		if !aborted && time.Now().After(deadline) {
			_ = mgr.Abort(id)
			aborted = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	fid, t0 := r.tr.begin()
	err := mgr.Forget(id)
	r.tr.end(fid, kForget, x, 0, t0)
	if err != nil && !errors.Is(err, control.ErrUnknownFlow) {
		r.corrupt(fmt.Sprintf("churn flow %d: forget: %v", id, err))
	}
}
