package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/session"
	"repro/internal/transport"
)

// The lossy-mux workload: a closed loop over the in-memory hub with 1%
// loss. 16 slots share 2 sender-side and 2 receiver-side hub endpoints;
// each slot repeatedly opens a 1→1 flow pair on a group of its own,
// moves a 1 MiB object, and starts the next one when the previous one
// completes. A transfer's latency runs from opening its flows to its
// last byte read. No sockets are involved.
const (
	muxSlots     = 16
	muxEndpoints = 2
	muxObject    = 1 << 20
	muxLoss      = 0.01
	muxDeadline  = 30 * time.Second // a transfer still running then is aborted and counts as failed
)

// groupEndpoint is a hub endpoint as the workload uses it: a
// transport the session hosts flows on, and a group membership handle.
type groupEndpoint interface {
	transport.Transport
	transport.GroupTransport
}

type muxStack struct {
	hub  *transport.Hub
	sess *session.Session
	snd  [muxEndpoints]groupEndpoint
	rcv  [muxEndpoints]groupEndpoint
}

func (s *muxStack) close() {
	s.sess.Abort()
	for i := range s.snd {
		s.snd[i].Close()
		s.rcv[i].Close()
	}
}

func runLossyMux(r *run) error {
	setup := func(int) (*muxStack, error) {
		s := &muxStack{hub: transport.NewHub(transport.WithLoss(muxLoss, r.seed)), sess: session.New(session.Config{})}
		for i := 0; i < muxEndpoints; i++ {
			s.snd[i] = r.wrap(s.hub.Endpoint()).(groupEndpoint)
			s.rcv[i] = r.wrap(s.hub.Endpoint()).(groupEndpoint)
		}
		return s, nil
	}
	s, err := timeSetup(r, setup, (*muxStack).close)
	if err != nil {
		return fmt.Errorf("lossy-mux: set-up: %w", err)
	}

	r.beginPhase()
	start := time.Now()
	var next atomic.Int32
	var attempted, failed atomic.Int64
	var wg sync.WaitGroup
	for slot := 0; slot < muxSlots; slot++ {
		ep := slot % muxEndpoints
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < r.seconds {
				x := next.Add(1)
				attempted.Add(1)
				if !r.muxTransfer(s, ep, x) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	r.opsDone()
	r.out.attempted = int(attempted.Load())
	r.out.failed = int(failed.Load())
	s.close()
	r.endPhase()
	return nil
}

// muxTransfer moves one object over a fresh flow pair and group, and
// reports whether it arrived whole and bit-exact before the deadline.
func (r *run) muxTransfer(s *muxStack, ep int, x int32) bool {
	// Two header ports per transfer, unique among the flows open at
	// once: 8 slots share each endpoint and the demux key is the port.
	sp, rp := uint16(1024+2*(x%30000)), uint16(1025+2*(x%30000))
	r.ports[sp].Store(x)
	r.ports[rp].Store(x)
	group := fmt.Sprintf("mux-%d", x)
	t0 := time.Now()
	gid, err := s.rcv[ep].Join(group)
	if err != nil {
		r.corrupt(fmt.Sprintf("lossy-mux transfer %d: join: %v", x, err))
		return false
	}
	defer s.rcv[ep].Leave(gid)
	if _, err := s.snd[ep].Register(group); err != nil {
		r.corrupt(fmt.Sprintf("lossy-mux transfer %d: register: %v", x, err))
		return false
	}
	id, o0 := r.tr.begin()
	rf, err := s.sess.OpenReceiverFlow(s.rcv[ep], session.FlowSpec{
		Kind: session.KindReceiver, LocalPort: rp, PeerPort: sp, Buf: flowBuf, Group: gid,
	})
	r.tr.end(id, kOpenRecv, x, 0, o0)
	if err != nil {
		r.corrupt(fmt.Sprintf("lossy-mux transfer %d: open receiver: %v", x, err))
		return false
	}
	id, o0 = r.tr.begin()
	sf, err := s.sess.OpenSenderFlow(s.snd[ep], session.FlowSpec{
		Kind: session.KindSender, LocalPort: sp, PeerPort: rp, Buf: flowBuf, Receivers: 1, Group: gid,
	})
	r.tr.end(id, kOpenSend, x, 0, o0)
	if err != nil {
		rf.Close()
		rf.Detach()
		r.corrupt(fmt.Sprintf("lossy-mux transfer %d: open sender: %v", x, err))
		return false
	}

	var expired atomic.Bool
	deadline := time.AfterFunc(muxDeadline, func() {
		expired.Store(true)
		sf.Abort()
		rf.Close()
	})
	defer deadline.Stop()

	src := newStream(r.seed, uint64(x))
	var sendErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		xid, x0 := r.tr.begin()
		defer r.tr.end(xid, kXferSend, x, 0, x0)
		buf := make([]byte, chunk)
		for off := int64(0); off < muxObject; off += chunk {
			src.fill(buf, off)
			id, t := r.tr.begin()
			_, sendErr = sf.Write(buf)
			r.tr.end(id, kWrite, x, xid, t)
			if sendErr != nil {
				return
			}
		}
		id, t := r.tr.begin()
		sendErr = sf.Close()
		r.tr.end(id, kClose, x, xid, t)
	}()

	ok := r.muxRead(rf, src, x, t0)
	if !ok {
		sf.Abort() // unblock the writer instead of waiting out the deadline
	}
	<-done
	if ok && sendErr != nil {
		r.corrupt(fmt.Sprintf("lossy-mux transfer %d: sender: %v", x, sendErr))
		ok = false
	}
	if expired.Load() {
		ok = false
	}
	// Copy the counters under the flow locks: the tick loop may still be
	// ticking the flows until they are detached.
	for _, fs := range s.sess.Snapshot().Flows {
		if fs.ID == sf.ID() || fs.ID == rf.ID() {
			r.addStats(fs.Sender, fs.Receiver)
		}
	}
	sf.Detach()
	rf.Detach()
	return ok
}

// muxRead reads one transfer to its end, verifying every byte.
func (r *run) muxRead(rf *session.ReceiverFlow, src stream, x int32, t0 time.Time) bool {
	xid, x0 := r.tr.begin()
	defer r.tr.end(xid, kXferRecv, x, 0, x0)
	v := verifier{src: src}
	buf := make([]byte, chunk)
	for {
		id, t := r.tr.begin()
		n, err := rf.Read(buf)
		r.tr.end(id, kRead, x, xid, t)
		if n > 0 {
			now := time.Now()
			if v.off == 0 {
				r.addFirstByte(now.Sub(t0))
			}
			if cerr := v.check(buf[:n]); cerr != nil {
				r.corrupt(fmt.Sprintf("lossy-mux transfer %d: %v", x, cerr))
				rf.Close()
				return false
			}
			r.delivered.Add(int64(n))
		}
		if errors.Is(err, io.EOF) {
			if v.off != muxObject {
				r.corrupt(fmt.Sprintf("lossy-mux transfer %d: stream ended at %d of %d bytes", x, v.off, muxObject))
				return false
			}
			r.addXfer(time.Since(t0))
			return true
		}
		if err != nil {
			return false // aborted at the deadline
		}
	}
}
