package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/udpmcast"
)

// The bulk workload: one sender flow multicasts one large object to
// three receiver flows over real UDP loopback, all in one session —
// the paper's 1–3-receiver throughput test. The object is a seeded
// stream the sender writes for the run's seconds; each 1 MiB block's
// latency runs from the Write that starts it to the last receiver
// reading its last byte.
const (
	bulkReceivers = 3
	flowBuf       = 512 << 10 // hrmc-send/hrmc-recv and hrmcd's default buffer
	chunk         = 64 << 10  // application write and read size, as hrmc-send uses
	bulkBlock     = 1 << 20
	bulkDeadline  = 30 * time.Second // past the run's seconds, the whole transfer is abandoned
)

type bulkStack struct {
	sess *session.Session
	sf   *session.SenderFlow
	rfs  []*session.ReceiverFlow
}

func runBulk(r *run) error {
	lo, err := net.InterfaceByName("lo")
	if err != nil {
		return fmt.Errorf("bulk: loopback interface: %w", err)
	}
	port := 40000 + r.rng.Intn(20000)
	addr := fmt.Sprintf("239.%d.%d.%d", 64+r.rng.Intn(64), r.rng.Intn(256), 1+r.rng.Intn(200))
	r.ports[0].Store(1) // every flow binds the wildcard port of its own socket
	setup := func(i int) (*bulkStack, error) {
		// A fresh port per set-up keeps a torn-down try's stragglers out
		// of the measured one.
		group := fmt.Sprintf("%s:%d", addr, port+i)
		var trs []transport.Transport
		fail := func(err error) (*bulkStack, error) {
			for _, t := range trs {
				t.Close()
			}
			return nil, err
		}
		for k := 0; k < bulkReceivers; k++ {
			rt, err := udpmcast.NewReceiverTransport(group, lo)
			if err != nil {
				return fail(err)
			}
			trs = append(trs, rt)
		}
		st, err := udpmcast.NewSenderTransport(group, udpmcast.WithEgressIP(net.IPv4(127, 0, 0, 1)))
		if err != nil {
			return fail(err)
		}
		trs = append(trs, st)
		s := &bulkStack{sess: session.New(session.Config{})}
		for k := 0; k < bulkReceivers; k++ {
			id, t0 := r.tr.begin()
			rf, err := s.sess.OpenReceiverFlow(r.wrap(trs[k]), session.FlowSpec{Kind: session.KindReceiver, Buf: flowBuf})
			r.tr.end(id, kOpenRecv, 1, 0, t0)
			if err != nil {
				s.sess.Abort()
				return fail(err)
			}
			s.rfs = append(s.rfs, rf)
		}
		id, t0 := r.tr.begin()
		s.sf, err = s.sess.OpenSenderFlow(r.wrap(st), session.FlowSpec{
			Kind: session.KindSender, Buf: flowBuf, Receivers: bulkReceivers,
		})
		r.tr.end(id, kOpenSend, 1, 0, t0)
		if err != nil {
			s.sess.Abort()
			return fail(err)
		}
		return s, nil
	}
	s, err := timeSetup(r, setup, func(s *bulkStack) { s.sess.Abort() })
	if err != nil {
		return fmt.Errorf("bulk: set-up: %w", err)
	}

	src := newStream(r.seed, 0)
	r.beginPhase()
	start := time.Now()
	// Bytes count as delivered once every receiver has them.
	var delivered [bulkReceivers]atomic.Int64
	var dmu sync.Mutex
	deliver := func(k int, off int64) {
		dmu.Lock()
		defer dmu.Unlock()
		delivered[k].Store(off)
		m := off
		for j := range delivered {
			m = min(m, delivered[j].Load())
		}
		r.delivered.Store(m)
	}
	var aborted atomic.Bool
	abort := func() {
		aborted.Store(true)
		s.sess.Abort()
	}
	watchdog := time.AfterFunc(r.seconds+bulkDeadline, abort)

	var wg sync.WaitGroup
	var blockStart []time.Time
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		xid, x0 := r.tr.begin()
		buf := make([]byte, chunk)
		var off int64
	writing:
		for time.Since(start) < r.seconds {
			blockStart = append(blockStart, time.Now())
			for c := 0; c < bulkBlock/chunk; c++ {
				src.fill(buf, off)
				id, t0 := r.tr.begin()
				n, err := s.sf.Write(buf)
				r.tr.end(id, kWrite, 1, xid, t0)
				off += int64(n)
				if err != nil {
					sendErr = err
					break writing
				}
			}
		}
		if sendErr == nil {
			id, t0 := r.tr.begin()
			sendErr = s.sf.Close()
			r.tr.end(id, kClose, 1, xid, t0)
		}
		r.tr.end(xid, kXferSend, 1, 0, x0)
	}()
	blockDone := make([][]time.Time, bulkReceivers)
	for k, rf := range s.rfs {
		k, rf := k, rf
		wg.Add(1)
		go func() {
			defer wg.Done()
			xid, x0 := r.tr.begin()
			defer r.tr.end(xid, kXferRecv, 1, 0, x0)
			v := verifier{src: src}
			buf := make([]byte, chunk)
			for {
				id, t0 := r.tr.begin()
				n, err := rf.Read(buf)
				r.tr.end(id, kRead, 1, xid, t0)
				if n > 0 {
					if v.off == 0 {
						r.addFirstByte(time.Since(start))
					}
					if cerr := v.check(buf[:n]); cerr != nil {
						r.corrupt(fmt.Sprintf("bulk receiver %d: %v", k, cerr))
						abort()
						return
					}
					deliver(k, v.off)
					for v.off >= int64(len(blockDone[k])+1)*bulkBlock {
						blockDone[k] = append(blockDone[k], time.Now())
					}
				}
				if err != nil {
					if !errors.Is(err, io.EOF) && !aborted.Load() {
						r.corrupt(fmt.Sprintf("bulk receiver %d: read: %v", k, err))
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	r.opsDone()
	watchdog.Stop()
	if sendErr != nil && !aborted.Load() {
		r.corrupt(fmt.Sprintf("bulk sender: %v", sendErr))
	}
	r.out.attempted = len(blockStart)
	for b, t0 := range blockStart {
		last := time.Time{}
		for k := range blockDone {
			if b >= len(blockDone[k]) {
				last = time.Time{}
				break
			}
			if blockDone[k][b].After(last) {
				last = blockDone[k][b]
			}
		}
		if last.IsZero() {
			r.out.failed++
			continue
		}
		r.addXfer(last.Sub(t0))
	}
	if aborted.Load() {
		s.sess.Abort()
	} else if err := s.sess.Close(); err != nil {
		r.corrupt(fmt.Sprintf("bulk session close: %v", err))
	}
	// The session's loops have stopped, so the counters are final.
	r.addStats(s.sf.Stats(), nil)
	for _, rf := range s.rfs {
		r.addStats(nil, rf.Stats())
	}
	r.endPhase()
	return nil
}
