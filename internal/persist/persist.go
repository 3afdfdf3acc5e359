// Package persist implements OTIF's on-disk formats: a versioned,
// checksummed binary encoding for extracted track sets (the product of
// pre-processing, which downstream queries scan repeatedly) and for the
// trained model bundle (background model, proxy models, window sizes,
// tracking models, refinement clusters), so a deployment trains once and
// executes everywhere.
//
// The format is deliberately explicit rather than gob/json: every record
// is length-prefixed little-endian with a magic header, a format version,
// and a trailing CRC32 so truncation and corruption are detected at load
// time.
//
// Both directions go through a buffer of their own (bufSize). The writer
// appends fields to it and checksums and writes it whole when it fills;
// the reader refills it from the source and checksums what it has
// consumed once per refill. CRC32 is streaming, so one checksum over a
// buffer equals the per-field checksums it replaces and the bytes on disk
// do not depend on where the buffer boundaries fall. The writer refuses
// what the reader would refuse (a string or count over its limit), so a
// file that writes without error reads back.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Format error sentinels.
var (
	ErrBadMagic    = errors.New("persist: bad magic")
	ErrBadVersion  = errors.New("persist: unsupported format version")
	ErrBadChecksum = errors.New("persist: checksum mismatch")
)

// version is the model bundle's format version.
const version = 1

// bufSize is the writer's and the reader's buffer: large enough that the
// checksum runs over long inputs (crc32 takes a byte-at-a-time path below
// 16 bytes), small enough that a reader of a hostile few-dozen-byte file
// stays far below the 256 KiB the allocation tests allow.
const bufSize = 64 << 10

// Limits the reader puts on a string's length and on counts it reads
// ahead of the checksum; the writer refuses a value above them. Counts of
// the model bundle carry their own limits in models.go.
const (
	maxStr    = 1 << 20 // bytes in one string
	maxFloats = 1 << 26 // values in one float slice
)

// writer appends fields to its buffer and latches the first error.
type writer struct {
	dst io.Writer
	buf []byte // fields not yet checksummed or written
	crc uint32
	err error
}

func newWriter(dst io.Writer) *writer {
	return &writer{dst: dst, buf: make([]byte, 0, bufSize)}
}

// flush checksums and writes the buffered fields and empties the buffer.
func (w *writer) flush() error {
	if w.err == nil && len(w.buf) > 0 {
		w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf)
		_, w.err = w.dst.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}

// room flushes unless n more bytes fit in the buffer (n <= bufSize).
func (w *writer) room(n int) {
	if len(w.buf)+n > cap(w.buf) {
		w.flush()
	}
}

// fail latches err unless an earlier error is latched already.
func (w *writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *writer) bytes(b []byte) { appendChunks(w, b) }

// appendChunks appends b to the buffer a buffer's worth at a time.
func appendChunks[B string | []byte](w *writer, b B) {
	for len(b) > 0 {
		w.room(1)
		n := copy(w.buf[len(w.buf):cap(w.buf)], b)
		w.buf = w.buf[:len(w.buf)+n]
		b = b[n:]
	}
}

func (w *writer) u32(v uint32) {
	w.room(4)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

func (w *writer) u64(v uint64) {
	w.room(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) int(v int)     { w.i64(int64(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) boolean(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.room(1)
	w.buf = append(w.buf, b)
}

// count writes n, a count the reader refuses above limit; the writer
// refuses it too.
func (w *writer) count(what string, n, limit int) {
	if n > limit {
		w.fail(fmt.Errorf("persist: %d %s, more than the %d a reader accepts", n, what, limit))
	}
	w.int(n)
}

func (w *writer) str(s string) {
	if len(s) > maxStr {
		w.fail(fmt.Errorf("persist: string of %d bytes, longer than the %d a reader accepts", len(s), maxStr))
	}
	w.int(len(s))
	appendChunks(w, s)
}

func (w *writer) floats(vs []float64) {
	w.count("floats in a slice", len(vs), maxFloats)
	for _, v := range vs {
		w.f64(v)
	}
}

// finish flushes, then writes the trailing checksum, which is not itself
// checksummed.
func (w *writer) finish() error {
	if w.flush() != nil {
		return w.err
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, w.crc)
	_, w.err = w.dst.Write(w.buf)
	w.buf = w.buf[:0]
	return w.err
}

// reader reads through its buffer, checksums what it consumes and latches
// the first error.
type reader struct {
	src io.Reader
	buf []byte // buf[pos:] is read from src but not yet consumed
	pos int
	sum int // buf[sum:pos] is consumed but not yet checksummed
	crc uint32
	err error
}

func newReader(src io.Reader) *reader {
	return &reader{src: src, buf: make([]byte, 0, bufSize)}
}

// checksum folds the consumed, not yet checksummed bytes into the CRC.
func (r *reader) checksum() {
	r.crc = crc32.Update(r.crc, crc32.IEEETable, r.buf[r.sum:r.pos])
	r.sum = r.pos
}

// fill makes at least n <= bufSize unconsumed bytes available; false (with
// the error latched) when the source ends or fails first.
func (r *reader) fill(n int) bool {
	if r.err != nil {
		return false
	}
	have := len(r.buf) - r.pos
	if have >= n {
		return true
	}
	r.checksum()
	copy(r.buf, r.buf[r.pos:])
	r.buf, r.pos, r.sum = r.buf[:have], 0, 0
	m, err := io.ReadAtLeast(r.src, r.buf[have:cap(r.buf)], n-have)
	r.buf = r.buf[:have+m]
	if err != nil {
		if err == io.EOF && have > 0 {
			err = io.ErrUnexpectedEOF
		}
		r.err = err
		return false
	}
	return true
}

// fixed consumes the next n <= bufSize bytes and returns them as a view
// into the buffer, valid until the next read. It is nil after an error.
func (r *reader) fixed(n int) []byte {
	if !r.fill(n) {
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// bytes reads the next n bytes into a slice of their own (long strings,
// magic, pixel planes). It is nil after an error. n is a length the source
// states ahead of the checksum, so the slice grows as the bytes arrive
// rather than being reserved up front.
func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > 1<<30 {
		r.err = fmt.Errorf("persist: implausible length %d", n)
		return nil
	}
	b := make([]byte, 0, min(n, bufSize))
	for len(b) < n {
		if !r.fill(1) {
			return nil
		}
		m := min(n-len(b), len(r.buf)-r.pos)
		b = append(b, r.buf[r.pos:r.pos+m]...)
		r.pos += m
	}
	return b
}

func (r *reader) u32() uint32 {
	b := r.fixed(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// u64 reads most of a file's fields. Its first branch, taken unless the
// buffer must be refilled, reads the field in place rather than through
// fixed and fill: a segment decode that goes through them for every field
// runs about 40 % longer.
func (r *reader) u64() uint64 {
	if r.err == nil && len(r.buf)-r.pos >= 8 {
		r.pos += 8
		return binary.LittleEndian.Uint64(r.buf[r.pos-8:])
	}
	b := r.fixed(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) int() int     { return int(r.i64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) boolean() bool {
	b := r.fixed(1)
	return b != nil && b[0] != 0
}

// strBytes reads a string's bytes: a view into the buffer (valid until
// the next read) when they fit in it, a slice of their own otherwise. It
// is nil after an error.
func (r *reader) strBytes() []byte {
	n := r.int()
	if r.err != nil || n < 0 || n > maxStr {
		if r.err == nil {
			r.err = fmt.Errorf("persist: implausible string length %d", n)
		}
		return nil
	}
	if n <= bufSize {
		return r.fixed(n)
	}
	return r.bytes(n)
}

func (r *reader) str() string { return string(r.strBytes()) }

// strLike reads a string and returns like itself when the bytes equal it:
// most detections carry their track's category, and sharing it saves an
// allocation per detection (the comparison allocates nothing).
func (r *reader) strLike(like string) string {
	if b := r.strBytes(); string(b) != like {
		return string(b)
	}
	return like
}

func (r *reader) floats() []float64 {
	n := r.int()
	if r.err != nil || n < 0 || n > maxFloats {
		if r.err == nil {
			r.err = fmt.Errorf("persist: implausible slice length %d", n)
		}
		return nil
	}
	out := make([]float64, 0, min(n, maxPrealloc))
	for i := 0; i < n; i++ {
		v := r.f64()
		if r.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// verifyChecksum reads the trailing CRC and compares it with the CRC of
// everything consumed before it.
func (r *reader) verifyChecksum() error {
	if r.err != nil {
		return r.err
	}
	r.checksum()
	want := r.crc
	b := r.fixed(4)
	if b == nil {
		return r.err
	}
	if binary.LittleEndian.Uint32(b) != want {
		return ErrBadChecksum
	}
	return nil
}

// header writes/checks a magic string plus version.
func (w *writer) header(magic string) {
	w.bytes([]byte(magic))
	w.u32(version)
}

func (r *reader) header(magic string) error {
	b := r.bytes(len(magic))
	if r.err != nil {
		return r.err
	}
	if string(b) != magic {
		return ErrBadMagic
	}
	if v := r.u32(); v != version {
		if r.err != nil {
			return r.err
		}
		return fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	return nil
}
