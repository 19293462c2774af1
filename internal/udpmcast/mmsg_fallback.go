//go:build !linux || (!amd64 && !arm64)

// Portable batch I/O: platforms without the recvmmsg/sendmmsg wiring
// run batch size 1 per syscall behind the same batchReader/batchWriter
// surface as mmsg_linux.go.
package udpmcast

import (
	"net"
	"sync/atomic"
)

// batchReader reads one datagram per call on platforms without
// recvmmsg support.
type batchReader struct {
	conn *net.UDPConn
	buf  []byte
	n    int
	addr *net.UDPAddr
	// trunc mirrors the batch reader's per-transport truncation
	// counter; reads here take up to maxDatagram and never truncate.
	trunc *atomic.Int64
}

func newBatchReader(conn *net.UDPConn) *batchReader {
	return &batchReader{conn: conn, buf: make([]byte, maxDatagram)}
}

func (r *batchReader) read(max int) (int, error) {
	if max <= 0 {
		return 0, nil
	}
	n, addr, err := r.conn.ReadFromUDP(r.buf)
	if err != nil {
		return 0, err
	}
	r.n, r.addr = n, addr
	return 1, nil
}

func (r *batchReader) datagram(int) ([]byte, *net.UDPAddr) {
	return r.buf[:r.n], r.addr
}

// dst reports no destination address: there is no IP_PKTINFO here.
func (r *batchReader) dst(int) uint32 { return 0 }

// batchWriter sends each message with its own syscall.
type batchWriter struct {
	conn *net.UDPConn
	errs *atomic.Int64 // optional per-transport send-error counter
}

func newBatchWriter(conn *net.UDPConn) *batchWriter { return &batchWriter{conn: conn} }

func (w *batchWriter) write(msgs []outMsg) error { return writeSeq(w.conn, msgs, w.errs) }
