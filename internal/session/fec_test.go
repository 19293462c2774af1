package session

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/transport"
)

// TestSessionFecDatapathPoolBalance drives FEC flows over a lossy hub
// with receive-window recycling live (session receivers always recycle):
// the receiver's parity group cache takes and releases its own pool
// references alongside the window's, so every transfer must end
// bit-exact with the pool's get/put counters balanced — under the race
// detector this doubles as the use-after-free proof for cache-held
// buffers.
func TestSessionFecDatapathPoolBalance(t *testing.T) {
	const (
		groups = 4
		size   = 256 << 10
	)
	before := packet.PoolStats()
	hub := transport.NewHub(transport.WithLoss(0.02, 11))
	sess := New(Config{})

	var wg sync.WaitGroup
	var sfs []*SenderFlow
	var rfs []*ReceiverFlow
	for g := 0; g < groups; g++ {
		sp, rp := groupPorts(g)
		data := make([]byte, size)
		app.FillPattern(data, int64(g)<<20)
		rf, err := sess.OpenReceiver(hub.Endpoint(), receiver.Config{
			LocalPort: rp, RemotePort: sp, RcvBuf: 64 << 10, FECGroupSize: 8,
		})
		if err != nil {
			t.Fatalf("OpenReceiver g%d: %v", g, err)
		}
		sf, err := sess.OpenSender(hub.Endpoint(), sender.Config{
			LocalPort: sp, RemotePort: rp, SndBuf: 64 << 10,
			ExpectedReceivers: 1, Rate: fastRate(), FECGroupSize: 8,
		})
		if err != nil {
			t.Fatalf("OpenSender g%d: %v", g, err)
		}
		sfs, rfs = append(sfs, sf), append(rfs, rf)
		wg.Add(1)
		go func(g int, rf *ReceiverFlow) {
			defer wg.Done()
			got, err := io.ReadAll(rf)
			if err != nil || !bytes.Equal(got, data) {
				t.Errorf("group %d delivery: err=%v equal=%v", g, err, bytes.Equal(got, data))
			}
		}(g, rf)
		wg.Add(1)
		go func(g int, sf *SenderFlow) {
			defer wg.Done()
			if _, err := sf.Write(data); err != nil {
				t.Errorf("group %d write: %v", g, err)
			}
			if err := sf.Close(); err != nil {
				t.Errorf("group %d close: %v", g, err)
			}
		}(g, sf)
	}
	wg.Wait()
	if err := sess.Close(); err != nil {
		t.Errorf("session close: %v", err)
	}

	// Stats are read only now, after Close stopped the tick loop.
	var recovered, parity int64
	for _, sf := range sfs {
		parity += sf.Stats().FecParitySent
	}
	for _, rf := range rfs {
		recovered += rf.Stats().FecRecovered
	}
	if parity == 0 {
		t.Error("no parity sent — FECGroupSize did not reach the senders")
	}
	if recovered == 0 {
		t.Error("no local recoveries across 2%-loss flows — parity path exercised nothing")
	}
	after := packet.PoolStats()
	gets, puts := after.Gets-before.Gets, after.Puts-before.Puts
	if gets != puts {
		t.Errorf("pool imbalance after close: gets +%d, puts +%d (leaked %d)",
			gets, puts, gets-puts)
	}
}
