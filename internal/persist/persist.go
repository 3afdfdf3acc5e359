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
package persist

import (
	"bufio"
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

// writer wraps a destination with checksumming and error latching.
type writer struct {
	w   *bufio.Writer
	crc uint32
	err error
}

func newWriter(w io.Writer) *writer {
	return &writer{w: bufio.NewWriter(w)}
}

func (w *writer) bytes(b []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, b)
	_, w.err = w.w.Write(b)
}

func (w *writer) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.bytes(b[:])
}

func (w *writer) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.bytes(b[:])
}

func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) int(v int)     { w.i64(int64(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) boolean(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.bytes([]byte{b})
}

func (w *writer) str(s string) {
	w.int(len(s))
	w.bytes([]byte(s))
}

func (w *writer) floats(vs []float64) {
	w.int(len(vs))
	for _, v := range vs {
		w.f64(v)
	}
}

// finish writes the trailing checksum (not itself checksummed) and
// flushes.
func (w *writer) finish() error {
	if w.err != nil {
		return w.err
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], w.crc)
	if _, err := w.w.Write(b[:]); err != nil {
		return err
	}
	return w.w.Flush()
}

// reader wraps a source with checksumming and error latching.
type reader struct {
	r   *bufio.Reader
	crc uint32
	err error
	buf [8]byte // fixed-width fields are read through it, not the heap
}

func newReader(r io.Reader) *reader {
	return &reader{r: bufio.NewReader(r)}
}

// read fills b from the source and checksums it; false after an error.
func (r *reader) read(b []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.err = err
		return false
	}
	r.crc = crc32.Update(r.crc, crc32.IEEETable, b)
	return true
}

// bytes reads the next n bytes into a slice of their own (strings, magic,
// pixel planes). It is nil after an error. n is a length the source states
// ahead of the checksum, so the slice grows a chunk at a time as the bytes
// arrive; a short string is still one allocation.
func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > 1<<30 {
		r.err = fmt.Errorf("persist: implausible length %d", n)
		return nil
	}
	const chunk = 64 << 10
	b := make([]byte, min(n, chunk))
	if !r.read(b) {
		return nil
	}
	for len(b) < n {
		m := min(n-len(b), chunk)
		b = append(b, make([]byte, m)...)
		if !r.read(b[len(b)-m:]) {
			return nil
		}
	}
	return b
}

// fixed reads the next n <= 8 bytes into the reader's own buffer; the
// slice is valid until the next read. It is nil after an error.
func (r *reader) fixed(n int) []byte {
	if b := r.buf[:n]; r.read(b) {
		return b
	}
	return nil
}

func (r *reader) u32() uint32 {
	b := r.fixed(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
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

func (r *reader) str() string {
	n := r.int()
	if r.err != nil || n < 0 || n > 1<<20 {
		if r.err == nil {
			r.err = fmt.Errorf("persist: implausible string length %d", n)
		}
		return ""
	}
	return string(r.bytes(n))
}

func (r *reader) floats() []float64 {
	n := r.int()
	if r.err != nil || n < 0 || n > 1<<26 {
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

// verifyChecksum reads the trailing CRC and compares.
func (r *reader) verifyChecksum() error {
	if r.err != nil {
		return r.err
	}
	want := r.crc
	var b [4]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(b[:]) != want {
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
