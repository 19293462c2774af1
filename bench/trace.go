package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// kind names a span: one call into a layer's public function, or (for
// the xfer kinds) one transfer as the benchmark sees it.
type kind uint8

const (
	kXferSend  kind = iota // a sender flow, open to Close return
	kXferRecv              // a receiver flow, open to end of stream
	kOpenSend              // session.OpenSenderFlow
	kOpenRecv              // session.OpenReceiverFlow
	kWrite                 // session SenderFlow.Write
	kRead                  // session ReceiverFlow.Read
	kClose                 // session SenderFlow.Close
	kSendBatch             // transport SendBatch
	kRecvBatch             // transport RecvBatch
	kJoin                  // transport GroupTransport.Join
	kRegister              // transport GroupTransport.Register
	kAdmit                 // control Manager.Admit
	kStatus                // control Manager.Status
	kForget                // control Manager.Forget
	nKinds
)

var kindNames = [nKinds]string{
	"xfer.send", "xfer.recv",
	"session.open_sender", "session.open_receiver", "session.write", "session.read", "session.close",
	"transport.send_batch", "transport.recv_batch", "transport.join", "transport.register",
	"control.admit", "control.status", "control.forget",
}

// span is one recorded call. Times are nanoseconds since the tracer
// started; xfer groups the spans of one transfer (0: shared, e.g. a
// transport batch carrying several flows); parent is the span that
// caused this one (0: none).
type span struct {
	id, parent uint64
	start, end int64
	xfer       int32
	kind       kind
}

// maxSpans bounds the in-memory trace. Spans beyond it are counted,
// not kept; the per-layer numbers then cover the kept prefix and
// trace.spans_dropped says so.
const maxSpans = 1 << 20

// tracer keeps spans in memory and writes them out at exit. A nil
// *tracer records nothing and costs one nil check per call site, which
// is how untraced runs measure the program without it.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint64
	n       atomic.Int64
	spans   []span
	dropped atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, maxSpans)}
}

// begin allocates a span id and stamps its start.
func (t *tracer) begin() (uint64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.ids.Add(1), int64(time.Since(t.t0))
}

// end records the span begun by begin and returns its duration in
// nanoseconds.
func (t *tracer) end(id uint64, k kind, xfer int32, parent uint64, start int64) int64 {
	if t == nil {
		return 0
	}
	end := int64(time.Since(t.t0))
	if i := t.n.Add(1) - 1; i < maxSpans {
		t.spans[i] = span{id: id, parent: parent, start: start, end: end, xfer: xfer, kind: k}
	} else {
		t.dropped.Add(1)
	}
	return end - start
}

// kept returns the recorded spans.
func (t *tracer) kept() []span {
	n := t.n.Load()
	if n > maxSpans {
		n = maxSpans
	}
	return t.spans[:n]
}

// layerTimes is the per-kind summary of a trace: call count, total
// duration, total self time (duration minus the part of the span's
// interval its child spans cover), and every duration and self time
// for percentiles.
type layerTimes struct {
	count     int
	total     time.Duration
	self      time.Duration
	durations []float64 // seconds
	selfs     []float64 // seconds
}

// summarize derives per-kind totals and self times from the kept spans.
func (t *tracer) summarize() [nKinds]layerTimes {
	spans := t.kept()
	children := make(map[uint64][]int)
	for i := range spans {
		if p := spans[i].parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	var out [nKinds]layerTimes
	for i := range spans {
		s := &spans[i]
		dur := s.end - s.start
		self := dur - covered(s, spans, children[s.id])
		lt := &out[s.kind]
		lt.count++
		lt.total += time.Duration(dur)
		lt.self += time.Duration(self)
		lt.durations = append(lt.durations, float64(dur)/1e9)
		lt.selfs = append(lt.selfs, float64(self)/1e9)
	}
	return out
}

// covered is the length of the union of the child intervals, clipped
// to the parent's interval.
func covered(p *span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, p.start), min(spans[k].end, p.end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64 = 0, -1, -1
	for _, v := range iv {
		if v[0] > curB {
			if curB > curA {
				sum += curB - curA
			}
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	if curB > curA {
		sum += curB - curA
	}
	return sum
}

// writeFile writes every kept span, one per line (id, parent, xfer,
// kind, start ns, end ns), to path.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\txfer\tkind\tstart_ns\tend_ns")
	for _, s := range t.kept() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.xfer, kindNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
