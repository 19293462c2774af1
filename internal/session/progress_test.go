package session

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/transport"
)

// TestSessionProgressUpdatesMismatchedBuffers runs one sender with a
// 64 KiB window to three receivers with 512 KiB windows over the
// in-memory hub on the session's 1 ms grain. A reporting stride (a
// quarter of the receive window) is twice the whole send window, so
// only the KEEPALIVE trigger can report progress: the window-blocked
// sender multicasts a KEEPALIVE, the receivers answer with UPDATEs, and
// the window frees a round trip later instead of at the MINBUF deadline.
// Delivery must be bit-exact, and every receiver must have reported
// progress. CI repeats it under the race detector.
func TestSessionProgressUpdatesMismatchedBuffers(t *testing.T) {
	const (
		receivers = 3
		size      = 2 << 20
		sndBuf    = 64 << 10
	)
	hub := transport.NewHub()
	sess := New(Config{})
	defer sess.Close()
	sp, rp := groupPorts(0)
	data := make([]byte, size)
	app.FillPattern(data, 0)

	var wg sync.WaitGroup
	for i := 0; i < receivers; i++ {
		rf, err := sess.OpenReceiver(hub.Endpoint(), receiver.Config{
			LocalPort: rp, RemotePort: sp, RcvBuf: 512 << 10,
		}, WithLabel(fmt.Sprintf("rcv%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := io.ReadAll(rf)
			if err != nil {
				t.Errorf("receiver %d: %v", i, err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("receiver %d: got %d bytes, not bit-exact with the %d-byte source", i, len(got), size)
			}
		}(i)
	}
	sf, err := sess.OpenSender(hub.Endpoint(), sender.Config{
		LocalPort: sp, RemotePort: rp, SndBuf: sndBuf,
		ExpectedReceivers: receivers, Rate: fastRate(),
	}, WithLabel("snd"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Write(data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := sf.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()

	windows := int64(size / sndBuf)
	for _, fs := range sess.Snapshot().Flows {
		switch {
		case fs.Receiver != nil && fs.Receiver.UpdatesProgress == 0:
			t.Errorf("%s sent no progress UPDATEs", fs.Label)
		case fs.Sender != nil && fs.Sender.ReleaseStalls > windows/2:
			// A window waiting out MINBUF stalls at least once; most
			// windows must be freed by feedback instead.
			t.Errorf("%d release stalls over %d send windows: release waited on the MINBUF hold",
				fs.Sender.ReleaseStalls, windows)
		}
	}
}
