// Package wire provides the small set of payload codecs shared by the
// framework layers: a fast flat codec for []float64 (the bulk data type of
// the coupled simulations), Ctl, the symmetric field codec behind the
// coupling protocol's fixed control layouts and checkpoints, and the framing
// primitives of the transport's binary frames. The gob helpers remain only
// for the benchmark, which prices gob against Ctl; no program package
// calls them.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
)

// Float64sSize returns the encoded size in bytes of n float64 values.
func Float64sSize(n int) int { return 8 * n }

// AppendFloat64s appends the little-endian encoding of vals to dst and
// returns the extended slice.
func AppendFloat64s(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// EncodeFloat64s encodes vals into a fresh byte slice.
func EncodeFloat64s(vals []float64) []byte {
	return AppendFloat64s(make([]byte, 0, Float64sSize(len(vals))), vals)
}

// DecodeFloat64s decodes a buffer produced by EncodeFloat64s.
func DecodeFloat64s(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("wire: float64 payload length %d not a multiple of 8", len(b))
	}
	vals := make([]float64, len(b)/8)
	if err := DecodeFloat64sInto(b, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// DecodeFloat64sInto decodes b into vals, which must have exactly
// len(b)/8 elements.
func DecodeFloat64sInto(b []byte, vals []float64) error {
	if len(b) != 8*len(vals) {
		return fmt.Errorf("wire: payload is %d bytes, destination wants %d", len(b), 8*len(vals))
	}
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}

// Marshal gob-encodes v.
func Marshal(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("wire: marshal %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// MustMarshal is Marshal for values that cannot fail to encode (fixed control
// structs); it panics on error, which would indicate a programming bug.
func MustMarshal(v any) []byte {
	b, err := Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Unmarshal gob-decodes b into v (a pointer).
func Unmarshal(b []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return fmt.Errorf("wire: unmarshal %T: %w", v, err)
	}
	return nil
}
