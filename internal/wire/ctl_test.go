package wire

import (
	"math"
	"strings"
	"testing"
)

type ctlItem struct {
	Name string
	N    int
}

type ctlSample struct {
	U     uint64
	I     int
	F     float64
	B     bool
	S     string
	Items []ctlItem
}

func (s *ctlSample) fields(c *Ctl) {
	c.U64(&s.U)
	c.Int(&s.I)
	c.F64(&s.F)
	c.Bool(&s.B)
	c.Str(&s.S)
	List(c, &s.Items, func(it *ctlItem, c *Ctl) {
		c.Str(&it.Name)
		c.Int(&it.N)
	})
}

func TestCtlRoundTrip(t *testing.T) {
	in := ctlSample{U: math.MaxUint64, I: -7, F: math.Inf(-1), B: true, S: "F.f>U.f",
		Items: []ctlItem{{"a", 1}, {"", -2}}}
	b := Encode(in.fields)
	if want := 8 + 8 + 8 + 1 + 4 + 7 + 4 + (4 + 1 + 8) + (4 + 8); len(b) != want {
		t.Fatalf("encoded %d bytes, want %d", len(b), want)
	}
	var out ctlSample
	if err := Decode(b, out.fields); err != nil {
		t.Fatal(err)
	}
	if out.U != in.U || out.I != in.I || out.F != in.F || !out.B || out.S != in.S ||
		len(out.Items) != 2 || out.Items[0] != in.Items[0] || out.Items[1] != in.Items[1] {
		t.Fatalf("round trip gave %+v, want %+v", out, in)
	}
}

// TestCtlRejects: short input, trailing bytes, a bool that is neither 0
// nor 1, and a string or list length beyond the bytes left are errors, and
// a huge length fails before anything of that size is allocated.
func TestCtlRejects(t *testing.T) {
	good := Encode((&ctlSample{S: "abc", Items: []ctlItem{{"x", 1}}}).fields)
	const boolAt, strAt = 24, 25
	listAt := strAt + 4 + 3
	patch := func(at int, bytes ...byte) []byte {
		b := append([]byte(nil), good...)
		copy(b[at:], bytes)
		return b
	}
	for name, tc := range map[string]struct {
		b    []byte
		want string
	}{
		"empty":         {nil, "truncated"},
		"truncated":     {good[:len(good)-1], "truncated"},
		"trailing":      {append(append([]byte(nil), good...), 0), "trail"},
		"bool 2":        {patch(boolAt, 2), "bool"},
		"string length": {patch(strAt, 0xff, 0xff, 0xff, 0xff), "exceeds"},
		"list count":    {patch(listAt, 0xff, 0xff, 0xff, 0x7f), "exceeds"},
	} {
		var out ctlSample
		err := Decode(tc.b, out.fields)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
}
