package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/match"
)

// paperExample is the configuration of the paper's Figure 2 (program P4's
// line and connections retained, P2 import corrected to an existing row).
const paperExample = `
P0 cluster0 /home/meou/bin/P0 16 extra0
P1 cluster1 /home/meou/bin/P1 8
P2 cluster1 /home/meou/bin/P2 32
P4 cluster1 /home/meou/bin/P4 4
#
P0.r1 P1.r1 REGL 0.2
P0.r1 P2.r3 REG 0.1
P0.r2 P4.r2 REGU 0.3
`

func TestParsePaperExample(t *testing.T) {
	cfg, err := ParseString(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Programs) != 4 || len(cfg.Connections) != 3 {
		t.Fatalf("parsed %d programs, %d connections", len(cfg.Programs), len(cfg.Connections))
	}
	p0, ok := cfg.Program("P0")
	if !ok || p0.Procs != 16 || p0.Cluster != "cluster0" || p0.Binary != "/home/meou/bin/P0" {
		t.Errorf("P0 = %+v", p0)
	}
	if len(p0.Extra) != 1 || p0.Extra[0] != "extra0" {
		t.Errorf("P0 extra = %v", p0.Extra)
	}
	c := cfg.Connections[0]
	if c.Export != (Endpoint{"P0", "r1"}) || c.Import != (Endpoint{"P1", "r1"}) {
		t.Errorf("connection 0 endpoints %+v", c)
	}
	if c.Policy != match.REGL || c.Tolerance != 0.2 {
		t.Errorf("connection 0 policy %v tol %v", c.Policy, c.Tolerance)
	}
	if cfg.Connections[1].Policy != match.REG || cfg.Connections[2].Policy != match.REGU {
		t.Error("policies wrong")
	}
}

func TestExportsImportsOf(t *testing.T) {
	cfg, err := ParseString(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	// Each region's connections, read off cfg.Connections by endpoint.
	of := func(end func(Connection) Endpoint, program, region string) []Connection {
		var out []Connection
		for _, c := range cfg.Connections {
			if e := end(c); e.Program == program && e.Region == region {
				out = append(out, c)
			}
		}
		return out
	}
	exp := func(c Connection) Endpoint { return c.Export }
	imp := func(c Connection) Endpoint { return c.Import }
	if got := of(exp, "P0", "r1"); len(got) != 2 {
		t.Errorf("exports of P0.r1 = %v", got)
	}
	if got := of(exp, "P0", "r9"); got != nil {
		t.Errorf("unconnected region has connections: %v", got)
	}
	if got := of(imp, "P2", "r3"); len(got) != 1 || got[0].Export.Program != "P0" {
		t.Errorf("imports of P2.r3 = %v", got)
	}
}

func TestProgramLookupMissing(t *testing.T) {
	cfg, _ := ParseString(paperExample)
	if _, ok := cfg.Program("nope"); ok {
		t.Error("missing program found")
	}
}

func TestParseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "coupling.cfg")
	if err := os.WriteFile(path, []byte(paperExample), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Programs) != 4 {
		t.Error("file parse differs")
	}
	if _, err := ParseFile(filepath.Join(dir, "missing.cfg")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	cfg, err := ParseString(`
# leading comment
A c /bin/a 1

B c /bin/b 2
#
# connection comment
A.x B.y REGL 1.5
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Programs) != 2 || len(cfg.Connections) != 1 {
		t.Fatalf("%+v", cfg)
	}
}

func TestConnectionString(t *testing.T) {
	c := Connection{
		Export: Endpoint{"A", "x"}, Import: Endpoint{"B", "y"},
		Policy: match.REGL, Tolerance: 2.5,
	}
	if c.String() != "A.x B.y REGL 2.5" {
		t.Errorf("String = %q", c.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"short program line", "A c /bin/a\n#\n"},
		{"bad proc count", "A c /bin/a x\n#\n"},
		{"zero procs", "A c /bin/a 0\n#\n"},
		{"short connection", "A c /bin/a 1\nB c /bin/b 1\n#\nA.x B.y REGL\n"},
		{"bad endpoint", "A c /bin/a 1\nB c /bin/b 1\n#\nAx B.y REGL 1\n"},
		{"endpoint no region", "A c /bin/a 1\nB c /bin/b 1\n#\nA. B.y REGL 1\n"},
		{"bad policy", "A c /bin/a 1\nB c /bin/b 1\n#\nA.x B.y BOGUS 1\n"},
		{"bad tolerance", "A c /bin/a 1\nB c /bin/b 1\n#\nA.x B.y REGL -1\n"},
		{"unknown exporter", "A c /bin/a 1\n#\nZ.x A.y REGL 1\n"},
		{"unknown importer", "A c /bin/a 1\n#\nA.x Z.y REGL 1\n"},
		{"self coupling", "A c /bin/a 1\n#\nA.x A.y REGL 1\n"},
		{"duplicate program", "A c /bin/a 1\nA c /bin/a 1\n#\n"},
		{"double import wiring", "A c /bin/a 1\nB c /bin/b 1\nC c /bin/c 1\n#\nA.x C.z REGL 1\nB.y C.z REGL 1\n"},
		{"duplicate separator", "A c /bin/a 1\n#\n#\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.in); err == nil {
				t.Errorf("accepted: %q", tc.in)
			}
		})
	}
}

func TestSameTimestampDoubleImportAllowed(t *testing.T) {
	// One exported region feeding two different importers is legal (the
	// paper's P0.r1 feeds both P1 and P2); verify no false positive.
	_, err := ParseString("A c /bin/a 1\nB c /bin/b 1\nC c /bin/c 1\n#\nA.x B.y REGL 1\nA.x C.y REGL 2\n")
	if err != nil {
		t.Errorf("fan-out export rejected: %v", err)
	}
}

func TestEndpointString(t *testing.T) {
	if (Endpoint{"P0", "r1"}).String() != "P0.r1" {
		t.Error("endpoint string wrong")
	}
}

func TestWindowedConnectionParses(t *testing.T) {
	cfg, err := ParseString("A c /bin/a 1\nB c /bin/b 1\n#\nA.x B.y REGL 1.5 rect=2:3:7:9\n")
	if err != nil {
		t.Fatal(err)
	}
	c := cfg.Connections[0]
	if !c.Windowed() {
		t.Fatal("window not parsed")
	}
	if c.Window.R0 != 2 || c.Window.C0 != 3 || c.Window.R1 != 7 || c.Window.C1 != 9 {
		t.Errorf("window %v", c.Window)
	}
	if got := c.String(); got != "A.x B.y REGL 1.5 rect=2:3:7:9" {
		t.Errorf("String = %q", got)
	}
	// Unwindowed connections remain unwindowed.
	cfg2, err := ParseString("A c /bin/a 1\nB c /bin/b 1\n#\nA.x B.y REGL 1.5\n")
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Connections[0].Windowed() {
		t.Error("full connection reports a window")
	}
}

func TestWindowedConnectionErrors(t *testing.T) {
	for _, tail := range []string{
		"bogus=1:2:3:4", "rect=1:2:3", "rect=a:2:3:4", "rect=-1:0:3:4", "rect=3:3:3:4", "rect=5:0:2:4",
	} {
		in := "A c /bin/a 1\nB c /bin/b 1\n#\nA.x B.y REGL 1 " + tail + "\n"
		if _, err := ParseString(in); err == nil {
			t.Errorf("accepted %q", tail)
		}
	}
}

func TestParseReaderError(t *testing.T) {
	if _, err := Parse(failingReader{}); err == nil || !strings.Contains(err.Error(), "read") {
		t.Errorf("reader error not surfaced: %v", err)
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, os.ErrDeadlineExceeded }
