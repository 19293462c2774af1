package packet

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the wire decoder: it must never
// panic, and anything it accepts must re-encode to a packet that decodes
// to the same header and payload (canonical round trip).
func FuzzDecode(f *testing.F) {
	// Seed with valid encodings of each packet type plus mutations.
	for _, ty := range Types() {
		p := &Packet{Header: Header{
			Type: ty, Seq: 12345, RateAdv: 999, SrcPort: 7, DstPort: 9,
		}}
		if ty == TypeData {
			p.Payload = []byte("fuzz seed payload")
			p.Length = uint32(len(p.Payload))
		}
		buf, err := p.Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		mut := append([]byte(nil), buf...)
		mut[4] ^= 0x80
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		re, err := p.Encode(nil)
		if err != nil {
			t.Fatalf("accepted packet does not re-encode: %v (%v)", err, p)
		}
		q, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded packet does not decode: %v", err)
		}
		if q.Header != p.Header || !bytes.Equal(q.Payload, p.Payload) {
			t.Fatalf("canonical round trip changed the packet:\n %+v\n %+v", p, q)
		}
	})
}

// FuzzDecodeBorrow checks the alias-decode path against the cloning
// path on arbitrary bytes: both must accept and reject the same
// inputs, an accepted borrow must be bit-exact with the clone while
// genuinely aliasing the envelope buffer, and once a borrowed packet
// is released to the pool, mutating the source buffer must not be
// observable through packets subsequently handed out by the pool.
func FuzzDecodeBorrow(f *testing.F) {
	for _, ty := range Types() {
		p := &Packet{Header: Header{
			Type: ty, Seq: 4242, RateAdv: 17, SrcPort: 3, DstPort: 5,
		}}
		if ty == TypeData {
			p.Payload = []byte("borrowed fuzz payload")
			p.Length = uint32(len(p.Payload))
		}
		buf, err := p.Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		mut := append([]byte(nil), buf...)
		mut[0] ^= 0x01
		f.Add(mut)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Borrow-decode from a private copy so post-release mutation
		// below cannot be confused with the fuzzer reusing data.
		src := append([]byte(nil), data...)
		b := Get()
		defer func() {
			if b != nil {
				Put(b)
			}
		}()
		borrowErr := DecodeBorrow(b, src)

		c := Get()
		defer Put(c)
		cloneErr := DecodeInto(c, data)

		if (borrowErr == nil) != (cloneErr == nil) {
			t.Fatalf("accept mismatch: DecodeBorrow=%v DecodeInto=%v", borrowErr, cloneErr)
		}
		if borrowErr != nil {
			return
		}
		if b.Header != c.Header || !bytes.Equal(b.Payload, c.Payload) {
			t.Fatalf("borrow differs from clone:\n %+v\n %+v", b, c)
		}
		if len(b.Payload) > 0 {
			if !b.Borrowed() {
				t.Fatal("non-empty payload decoded without the borrowed mark")
			}
			if &b.Payload[0] != &src[HeaderSize] {
				t.Fatal("borrowed payload does not alias the envelope buffer")
			}
		}

		// Release the borrow, then trash the source buffer. The pool
		// must have dropped the borrowed backing on Put, so no packet
		// it hands out afterwards may alias src: scribbling over a
		// fresh packet's full payload capacity must leave src intact.
		Put(b)
		b = nil
		for i := range src {
			src[i] ^= 0xFF
		}
		want := append([]byte(nil), src...)
		r := Get()
		defer Put(r)
		pl := r.Payload[:cap(r.Payload)]
		for i := range pl {
			pl[i] = 0xA5
		}
		if !bytes.Equal(src, want) {
			t.Fatal("pool handed out a packet whose capacity aliases a released borrow")
		}
	})
}

// refChecksumZeroed is the byte-pair Internet checksum loop the 64-bit
// fold replaced, kept as the reference: off names the word treated as
// zero (a negative off zeroes nothing).
func refChecksumZeroed(b []byte, off int) uint16 {
	var sum uint32
	n := len(b)
	for i := 0; i+1 < n; i += 2 {
		hi, lo := b[i], b[i+1]
		if i == off {
			hi, lo = 0, 0
		}
		sum += uint32(hi)<<8 | uint32(lo)
	}
	if n%2 == 1 {
		v := b[n-1]
		if n-1 == off {
			v = 0
		}
		sum += uint32(v) << 8
	}
	for sum > 0xFFFF {
		sum = (sum >> 16) + (sum & 0xFFFF)
	}
	return ^uint16(sum)
}

// FuzzChecksum checks Checksum and checksumZeroed bit-for-bit against
// the reference loop over arbitrary bytes, lengths and zeroed offsets,
// including odd tails, odd offsets and offsets past the end.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{0xFF}, 0)
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, 16)
	f.Add(bytes.Repeat([]byte{0xFF}, 1421), 16)
	f.Add(bytes.Repeat([]byte{0xFF}, 1420), 1419)
	f.Add(bytes.Repeat([]byte{0x80, 0x01}, 37), 73)
	f.Add(make([]byte, 33), 32)
	f.Fuzz(func(t *testing.T, b []byte, off int) {
		if got, want := Checksum(b), refChecksumZeroed(b, -1); got != want {
			t.Fatalf("Checksum(len %d) = %#04x, reference %#04x", len(b), got, want)
		}
		if got, want := checksumZeroed(b, off), refChecksumZeroed(b, off); got != want {
			t.Fatalf("checksumZeroed(len %d, off %d) = %#04x, reference %#04x", len(b), off, got, want)
		}
	})
}

// TestChecksumMatchesReference runs the FuzzChecksum property over
// seeded random buffers on every test run: every length up to an
// Ethernet MTU, all-ones and random contents, and zeroed offsets
// before, inside and past the buffer.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 1500; n++ {
		b := make([]byte, n)
		if n%3 == 0 {
			for i := range b {
				b[i] = 0xFF
			}
		} else {
			rng.Read(b)
		}
		for _, off := range []int{-1, 0, 16, 17, n - 2, n - 1, n, rng.Intn(n + 2)} {
			if got, want := checksumZeroed(b, off), refChecksumZeroed(b, off); got != want {
				t.Fatalf("checksumZeroed(len %d, off %d) = %#04x, reference %#04x", n, off, got, want)
			}
		}
		if got, want := Checksum(b), refChecksumZeroed(b, -1); got != want {
			t.Fatalf("Checksum(len %d) = %#04x, reference %#04x", n, got, want)
		}
	}
}
