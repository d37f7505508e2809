package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Ctl is a symmetric field codec for fixed little-endian control layouts. A
// message lists its fields once, in one method taking a *Ctl, which writes
// them under Encode and reads them under Decode, so a layout's encoder and
// parser cannot drift apart. U64, Int and F64 take 8 bytes, Bool 1 (0 or 1),
// and Str and List a 4-byte length before their contents. Decoding stops at
// the first error and reads every later field as zero.
type Ctl struct {
	buf []byte // the payload being written
	r   Reader // the payload being read
	dec bool
}

// ctls recycles codec states: fields is a func value, so a Ctl on the
// caller's stack would escape to the heap on every message.
var ctls = sync.Pool{New: func() any { return new(Ctl) }}

// Encode returns the bytes fields writes, in a fresh slice of exact length.
func Encode(fields func(*Ctl)) []byte {
	c := ctls.Get().(*Ctl)
	c.buf, c.dec = c.buf[:0], false
	fields(c)
	b := append([]byte(nil), c.buf...)
	ctls.Put(c)
	return b
}

// Decode reads b with fields. It rejects short input, trailing bytes, a Bool
// other than 0 or 1, and a length larger than the bytes left, which it
// checks before allocating.
func Decode(b []byte, fields func(*Ctl)) error {
	c := ctls.Get().(*Ctl)
	c.r.Reset(b)
	c.dec = true
	fields(c)
	err := c.r.Err()
	if err == nil && c.r.Len() > 0 {
		err = fmt.Errorf("wire: %d bytes trail a %d-byte control payload", c.r.Len(), len(b)-c.r.Len())
	}
	c.r.Reset(nil)
	ctls.Put(c)
	return err
}

// invalid records a decoded value the layout does not allow.
func (c *Ctl) invalid(format string, args ...any) {
	if c.r.err == nil {
		c.r.err = fmt.Errorf("wire: control "+format, args...)
	}
}

// U64, Int and F64 are 8-byte fields: unsigned, two's complement and IEEE
// 754 (every bit pattern round-trips).
func (c *Ctl) U64(v *uint64) {
	if c.dec {
		*v = c.r.Uint64()
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	}
}

func (c *Ctl) Int(v *int)     { u := uint64(*v); c.U64(&u); *v = int(u) }
func (c *Ctl) F64(v *float64) { u := math.Float64bits(*v); c.U64(&u); *v = math.Float64frombits(u) }

// Bool is a 1-byte field, 0 or 1.
func (c *Ctl) Bool(v *bool) {
	if !c.dec {
		b := byte(0)
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
	} else if b := c.r.Byte(); b > 1 {
		c.invalid("bool byte %d", b)
	} else {
		*v = b == 1
	}
}

// length writes n in 4 bytes, or reads such a length no larger than the
// bytes left.
func (c *Ctl) length(n int) int {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(n))
		return n
	}
	if n = int(c.r.Uint32()); n > c.r.Len() {
		c.invalid("length %d exceeds the %d bytes left", n, c.r.Len())
		return 0
	}
	return n
}

// Str is a length and the string's bytes.
func (c *Ctl) Str(v *string) {
	if n := c.length(len(*v)); c.dec {
		*v = string(c.r.take(uint64(n), "string"))
	} else {
		c.buf = append(c.buf, *v...)
	}
}

// List is an element count and each element's fields, in order.
func List[T any](c *Ctl, s *[]T, fields func(*T, *Ctl)) {
	if n := c.length(len(*s)); c.dec {
		*s = make([]T, n)
	}
	for i := range *s {
		fields(&(*s)[i], c)
	}
}
