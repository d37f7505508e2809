package wire

import (
	"encoding/binary"
	"fmt"
)

// This file holds the allocation-free framing primitives used by the binary
// transport codec: append-style writers over a caller-owned []byte and a
// cursor Reader whose Bytes/String accessors alias the read buffer instead
// of copying. Callers that retain a decoded value past the buffer's reuse
// must copy it explicitly — the transport layer documents which values are
// consumed in place (router forwarding) and which are retained (mailboxes).

// AppendUvarint appends v in unsigned LEB128 and returns the extended slice.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendString appends a uvarint length prefix followed by the raw bytes of s.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a uvarint length prefix followed by b.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// UvarintLen returns the encoded size of v in bytes.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Reader is a cursor over an encoded buffer. Decoding methods return zero
// values after the first error; check Err (or Len) once at the end instead
// of after every field. Bytes and String alias the underlying buffer —
// zero-copy, but only valid until the buffer is reused.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader positioned at the start of buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset repoints the reader at buf, clearing any error (allocation-free
// reuse across frames).
func (r *Reader) Reset(buf []byte) {
	r.buf, r.off, r.err = buf, 0, nil
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unconsumed bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated input: %s at offset %d of %d", what, r.off, len(r.buf))
	}
}

// Uvarint decodes one unsigned LEB128 value.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// take consumes the next n bytes, aliasing the buffer, or records what was
// cut short and returns nil.
func (r *Reader) take(n uint64, what string) []byte {
	if r.err != nil || uint64(r.Len()) < n {
		r.fail(what)
		return nil
	}
	r.off += int(n)
	return r.buf[r.off-int(n) : r.off : r.off]
}

// Byte decodes one byte.
func (r *Reader) Byte() byte {
	if b := r.take(1, "byte"); b != nil {
		return b[0]
	}
	return 0
}

// Uint32 decodes a fixed-width little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if b := r.take(4, "uint32"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Uint64 decodes a fixed-width little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if b := r.take(8, "uint64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Bytes decodes a length-prefixed byte string. The result aliases the
// reader's buffer: copy it if it outlives the buffer.
func (r *Reader) Bytes() []byte { return r.take(r.Uvarint(), "bytes body") }

// String decodes a length-prefixed string, allocating. Use StringBytes with
// an Interner on hot paths.
func (r *Reader) String() string { return string(r.Bytes()) }

// StringBytes decodes a length-prefixed string as an aliasing []byte
// (feed it to Interner.Intern to get an alloc-free string on repeats).
func (r *Reader) StringBytes() []byte { return r.Bytes() }

// Interner converts byte slices to strings without allocating for values
// seen before: the map lookup with a string([]byte) key does not allocate,
// so repeated program names, region names, and tags — the only strings on
// the hot transport path — cost one allocation ever.
type Interner struct {
	m map[string]string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{m: make(map[string]string)} }

// Intern returns the canonical string for b.
func (in *Interner) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	in.m[s] = s
	return s
}
