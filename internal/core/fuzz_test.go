package core

import (
	"bytes"
	"testing"

	"repro/internal/decomp"
	"repro/internal/wire"
)

// FuzzDecodeData: the data-message header parser and the row decode behind
// it must never panic on malformed payloads, and a payload they accept must
// come back byte for byte when its values are packed again.
func FuzzDecodeData(f *testing.F) {
	g := decomp.NewGrid(decomp.NewRect(0, 0, 3, 3))
	g.Fill(func(r, c int) float64 { return float64(3*r+c) + 0.5 })
	valid, _ := appendData(nil, 3, 19.6, g, decomp.NewRect(1, 1, 3, 3))
	empty, _ := appendData(nil, 0, 0, g, decomp.Rect{})
	f.Add([]byte{})
	f.Add(make([]byte, dataHeaderSize-1))
	f.Add(valid)
	f.Add(empty)
	f.Fuzz(func(t *testing.T, b []byte) {
		reqID, matchTS, sub, body, err := parseData(b)
		if err != nil {
			return
		}
		if r, c := sub.Rows(), sub.Cols(); r < 0 || c < 0 || r > len(body) || c > len(body) {
			// Extents that overflow int: no plan holds such a rectangle, so
			// Import refuses the piece before decoding it.
			return
		}
		got := decomp.Grid{Block: sub, Data: make([]float64, sub.Area())}
		if err := got.UnpackFrom(sub, body); err != nil {
			t.Fatalf("accepted payload for %v does not decode: %v", sub, err)
		}
		enc, err := appendData(nil, reqID, matchTS, &got, sub)
		if err != nil || !bytes.Equal(enc, b) {
			t.Fatalf("round trip of %d bytes gave %d bytes, %v", len(b), len(enc), err)
		}
	})
}

// FuzzControl: decoding any bytes as any control message must never panic,
// and a payload a message accepts must encode back byte for byte — each
// layout has exactly one encoding of every value it reads.
func FuzzControl(f *testing.F) {
	samples := controlSamples()
	f.Add([]byte{})
	for _, s := range samples {
		f.Add(s.want)
		f.Add(s.want[:len(s.want)-1])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, s := range samples {
			m := fresh(s.msg)
			if wire.Decode(b, m.fields) != nil {
				continue
			}
			if enc := wire.Encode(m.fields); !bytes.Equal(enc, b) {
				t.Fatalf("%s: accepted %x, re-encodes to %x", s.name, b, enc)
			}
		}
	})
}
