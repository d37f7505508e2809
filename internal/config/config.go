// Package config parses the framework-level configuration file that couples
// programs together (the paper's Figure 2): a program table followed by a
// "#" separator and the connection specifications. Keeping the coupling
// specification outside the user programs is what makes the framework
// loosely coupled — a program can be re-wired to new partners without
// recompilation (Section 3.1).
//
// File format:
//
//	# comment lines and blank lines are ignored in the program section
//	P0 cluster0 /home/meou/bin/P0 16
//	P1 cluster1 /home/meou/bin/P1 8
//	#
//	P0.r1 P1.r1 REGL 0.2
//	P0.r2 P1.r2 REG  0.1
//
// The single "#" on a line by itself separates the two sections (as in the
// paper's example); within the connection section, lines starting with "#"
// are comments.
package config

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/decomp"
	"repro/internal/match"
)

// Program is one row of the program table: a named (possibly parallel)
// simulation component and where/how to launch it.
type Program struct {
	Name    string
	Cluster string
	Binary  string
	Procs   int
	// Extra preserves any trailing fields (launch arguments etc.).
	Extra []string
}

// Endpoint names one region of one program, e.g. "P0.r1".
type Endpoint struct {
	Program string
	Region  string
}

// String renders the endpoint in configuration syntax.
func (e Endpoint) String() string { return e.Program + "." + e.Region }

// Connection couples an exported region to an imported region under a match
// policy and tolerance, e.g. "P0.r1 P1.r1 REGL 0.2". An optional trailing
// "rect=r0:c0:r1:c1" field restricts the transfer to a sub-rectangle of the
// shared index space — the "shared boundaries or the overlapped regions
// between physical models" of the paper's introduction. A zero Window means
// the whole array.
type Connection struct {
	Export    Endpoint
	Import    Endpoint
	Policy    match.Policy
	Tolerance float64
	// Window is the coupled sub-rectangle (global indices, half-open); the
	// zero rectangle couples the full arrays.
	Window decomp.Rect
}

// Windowed reports whether the connection couples only a sub-rectangle.
func (c Connection) Windowed() bool { return !c.Window.Empty() }

// String renders the connection in configuration syntax.
func (c Connection) String() string {
	s := fmt.Sprintf("%s %s %s %g", c.Export, c.Import, c.Policy, c.Tolerance)
	if c.Windowed() {
		s += fmt.Sprintf(" rect=%d:%d:%d:%d", c.Window.R0, c.Window.C0, c.Window.R1, c.Window.C1)
	}
	return s
}

// Config is a parsed coupling configuration.
type Config struct {
	Programs    []Program
	Connections []Connection
}

// Program returns the program table entry with the given name.
func (c *Config) Program(name string) (Program, bool) {
	for _, p := range c.Programs {
		if p.Name == name {
			return p, true
		}
	}
	return Program{}, false
}

// Parse reads a configuration from r.
func Parse(r io.Reader) (*Config, error) {
	cfg := &Config{}
	sc := bufio.NewScanner(r)
	inConnections := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "#" {
			if inConnections {
				return nil, fmt.Errorf("config: line %d: duplicate section separator", lineNo)
			}
			inConnections = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		fields := strings.Fields(line)
		if !inConnections {
			p, err := parseProgram(fields)
			if err != nil {
				return nil, fmt.Errorf("config: line %d: %w", lineNo, err)
			}
			cfg.Programs = append(cfg.Programs, p)
			continue
		}
		conn, err := parseConnection(fields)
		if err != nil {
			return nil, fmt.Errorf("config: line %d: %w", lineNo, err)
		}
		cfg.Connections = append(cfg.Connections, conn)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("config: read: %w", err)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// ParseFile reads a configuration from a file.
func ParseFile(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// ParseString reads a configuration from a string.
func ParseString(s string) (*Config, error) { return Parse(strings.NewReader(s)) }

func parseProgram(fields []string) (Program, error) {
	if len(fields) < 4 {
		return Program{}, fmt.Errorf("program line needs name cluster binary procs, got %d fields", len(fields))
	}
	procs, err := strconv.Atoi(fields[3])
	if err != nil || procs <= 0 {
		return Program{}, fmt.Errorf("invalid process count %q", fields[3])
	}
	return Program{
		Name:    fields[0],
		Cluster: fields[1],
		Binary:  fields[2],
		Procs:   procs,
		Extra:   append([]string(nil), fields[4:]...),
	}, nil
}

func parseConnection(fields []string) (Connection, error) {
	if len(fields) != 4 && len(fields) != 5 {
		return Connection{}, fmt.Errorf("connection line needs export import policy tolerance [rect=...], got %d fields", len(fields))
	}
	exp, err := parseEndpoint(fields[0])
	if err != nil {
		return Connection{}, err
	}
	imp, err := parseEndpoint(fields[1])
	if err != nil {
		return Connection{}, err
	}
	pol, err := match.ParsePolicy(fields[2])
	if err != nil {
		return Connection{}, err
	}
	tol, err := strconv.ParseFloat(fields[3], 64)
	if err != nil || tol < 0 {
		return Connection{}, fmt.Errorf("invalid tolerance %q", fields[3])
	}
	conn := Connection{Export: exp, Import: imp, Policy: pol, Tolerance: tol}
	if len(fields) == 5 {
		conn.Window, err = parseWindow(fields[4])
		if err != nil {
			return Connection{}, err
		}
	}
	return conn, nil
}

// parseWindow parses "rect=r0:c0:r1:c1".
func parseWindow(s string) (decomp.Rect, error) {
	const prefix = "rect="
	if !strings.HasPrefix(s, prefix) {
		return decomp.Rect{}, fmt.Errorf("unknown connection option %q (want rect=r0:c0:r1:c1)", s)
	}
	parts := strings.Split(s[len(prefix):], ":")
	if len(parts) != 4 {
		return decomp.Rect{}, fmt.Errorf("invalid rect %q (want r0:c0:r1:c1)", s)
	}
	vals := make([]int, 4)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			return decomp.Rect{}, fmt.Errorf("invalid rect coordinate %q", p)
		}
		vals[i] = v
	}
	r := decomp.NewRect(vals[0], vals[1], vals[2], vals[3])
	if r.Empty() {
		return decomp.Rect{}, fmt.Errorf("empty rect %q", s)
	}
	return r, nil
}

func parseEndpoint(s string) (Endpoint, error) {
	dot := strings.IndexByte(s, '.')
	if dot <= 0 || dot == len(s)-1 {
		return Endpoint{}, fmt.Errorf("invalid region endpoint %q (want program.region)", s)
	}
	return Endpoint{Program: s[:dot], Region: s[dot+1:]}, nil
}

// validate applies the checks the framework performs at initialization:
// duplicate programs, connections naming unknown programs, self-coupling,
// and duplicate import wiring (an imported region fed by two exporters has
// no defined semantics in the model).
func (c *Config) validate() error {
	seen := map[string]bool{}
	for _, p := range c.Programs {
		if seen[p.Name] {
			return fmt.Errorf("config: duplicate program %q", p.Name)
		}
		seen[p.Name] = true
	}
	imports := map[Endpoint]Endpoint{}
	for _, conn := range c.Connections {
		if !seen[conn.Export.Program] {
			return fmt.Errorf("config: connection %s: unknown exporting program %q", conn, conn.Export.Program)
		}
		if !seen[conn.Import.Program] {
			return fmt.Errorf("config: connection %s: unknown importing program %q", conn, conn.Import.Program)
		}
		if conn.Export.Program == conn.Import.Program {
			return fmt.Errorf("config: connection %s couples a program to itself", conn)
		}
		if prev, dup := imports[conn.Import]; dup {
			return fmt.Errorf("config: imported region %s wired to both %s and %s",
				conn.Import, prev, conn.Export)
		}
		imports[conn.Import] = conn.Export
	}
	return nil
}
