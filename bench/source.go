package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
)

// stream is a seeded, offset-addressed byte source: the byte at any
// offset is a pure function of (seed, object, offset), so senders
// generate and receivers verify without holding the object in memory,
// whatever the read and write chunking. Each 1 KiB cell opens with an
// 8-byte tag derived from the object and the cell index, and goes on
// with a seeded base pattern at an object-dependent rotation: filling
// and checking run at memory-copy speed, so the benchmark's own work
// stays small next to the program's, while a byte delivered at the
// wrong offset or from another object still fails the check.
type stream struct {
	key  uint64
	rot  int
	base []byte
}

const (
	cellSize = 1 << 10
	tagSize  = 8
	// baseLen is deliberately no multiple of any write, read or packet
	// size, so the pattern never realigns with them.
	baseLen = 1<<20 + 1021
)

var (
	basesMu sync.Mutex
	bases   = map[int64][]byte{}
)

// basePattern returns the seed's base pattern, built once per seed.
func basePattern(seed int64) []byte {
	basesMu.Lock()
	defer basesMu.Unlock()
	if b, ok := bases[seed]; ok {
		return b
	}
	b := make([]byte, baseLen+7)
	k := mix(uint64(seed) ^ 0x6A09E667F3BCC909)
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], mix(k+uint64(i)))
	}
	b = b[:baseLen]
	bases[seed] = b
	return b
}

// newStream derives the stream of one object from the run seed and the
// object's index within the run.
func newStream(seed int64, object uint64) stream {
	key := mix(uint64(seed)*0x9E3779B97F4A7C15 ^ (object+1)*0xC2B2AE3D27D4EB4F)
	return stream{key: key, rot: int(key % baseLen), base: basePattern(seed)}
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fill writes the stream bytes [off, off+len(b)) into b.
func (s stream) fill(b []byte, off int64) {
	for len(b) > 0 {
		in := int(off % cellSize)
		n := min(len(b), cellSize-in)
		cell := b[:n]
		if in < tagSize {
			var tag [tagSize]byte
			binary.LittleEndian.PutUint64(tag[:], mix(s.key+uint64(off/cellSize)*0x9E3779B97F4A7C15))
			m := copy(cell, tag[in:])
			s.copyBase(cell[m:], off+int64(m))
		} else {
			s.copyBase(cell, off)
		}
		b, off = b[n:], off+int64(n)
	}
}

func (s stream) copyBase(dst []byte, off int64) {
	i := int((off + int64(s.rot)) % baseLen)
	for len(dst) > 0 {
		n := copy(dst, s.base[i:])
		dst, i = dst[n:], 0
	}
}

// verifier checks received bytes against a stream, reusing one scratch
// buffer.
type verifier struct {
	src     stream
	off     int64
	scratch []byte
}

// check verifies b as the next bytes of the stream and advances.
func (v *verifier) check(b []byte) error {
	if cap(v.scratch) < len(b) {
		v.scratch = make([]byte, len(b))
	}
	want := v.scratch[:len(b)]
	v.src.fill(want, v.off)
	if !bytes.Equal(b, want) {
		i := 0
		for b[i] == want[i] {
			i++
		}
		return fmt.Errorf("byte %d differs from the seeded source", v.off+int64(i))
	}
	v.off += int64(len(b))
	return nil
}
