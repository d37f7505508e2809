// Package recover persists and restores collective-sequence checkpoints of
// the coupling framework.
//
// The paper's collective Property 1 — every process of a program issues the
// identical export/import sequence — gives a natural consistent cut: when
// every rank of a program has completed the same number of collective
// operations, the program's framework state (buffer versions, skip decisions,
// matcher histories, import progress) forms a checkpoint no in-flight message
// can invalidate, because everything a peer might still send is derivable
// from the peers' own retained state. Checkpoints are therefore taken as a
// collective operation (core.Process.Checkpoint) and assembled per program
// from one snapshot per rank; the same observation underlies Collective
// Vector Clocks for MPI (see PAPERS.md).
package recover

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/buffer"
	"repro/internal/match"
	"repro/internal/wire"
)

// Checkpoint is one program's state at a collective cut.
type Checkpoint struct {
	// Program names the checkpointed program.
	Program string
	// Epoch counts restarts: a freshly started program is epoch 0 and every
	// restore increments it. The rejoin handshake and the reliable
	// transport's session sequence numbers carry it.
	Epoch uint64
	// Seq is the application-chosen collective sequence number of the cut
	// (every rank passed the same value to Checkpoint). Drivers resume their
	// iteration loop from it after a restore.
	Seq uint64
	// Procs holds one state per rank, in rank order.
	Procs []ProcState
}

// ProcState is one rank's contribution to a Checkpoint.
type ProcState struct {
	Rank int
	// Exports maps connection keys ("exporter>importer") to the rank's
	// buffer-manager state for regions this program exports.
	Exports map[string]buffer.ManagerState
	// Imports maps connection keys to the rank's import progress for regions
	// this program imports.
	Imports map[string]ImportState
}

// ImportState is the import-side progress of one rank on one connection.
type ImportState struct {
	// Issued holds the request timestamp of every import call completed
	// before the cut, in issue order. Because the cut lies between
	// collective operations, there are no half-done imports: len(Issued) is
	// both the next request id and the replay floor.
	Issued []float64
}

// Store persists checkpoints, one latest checkpoint per program.
type Store interface {
	// Save atomically replaces the program's checkpoint.
	Save(ck *Checkpoint) error
	// Load returns the program's latest checkpoint, or (nil, nil) when none
	// has ever been saved.
	Load(program string) (*Checkpoint, error)
}

// format is a checkpoint's leading byte. Checkpoints written before it were
// gob streams, which never start with it, so they fail Decode.
const format = 1

// Encode serializes a checkpoint: the format byte, then the fields of
// ckptWire through the control codec (docs/PROTOCOL.md, "Control payloads").
func Encode(ck *Checkpoint) ([]byte, error) {
	w := ckptWire{Program: ck.Program, Epoch: ck.Epoch, Seq: ck.Seq, Procs: make([]procWire, len(ck.Procs))}
	for i, ps := range ck.Procs {
		w.Procs[i] = procWire{Rank: ps.Rank, Exports: toList(ps.Exports), Imports: toList(ps.Imports)}
	}
	return append([]byte{format}, wire.Encode(w.fields)...), nil
}

// Decode deserializes a checkpoint produced by Encode. It rejects another
// format byte, a payload the codec rejects, and connection keys out of
// order or repeated.
func Decode(b []byte) (*Checkpoint, error) {
	if len(b) == 0 || b[0] != format {
		return nil, fmt.Errorf("recover: decode checkpoint: not checkpoint format %d (checkpoints from older builds were gob and do not load)", format)
	}
	var w ckptWire
	if err := wire.Decode(b[1:], w.fields); err != nil {
		return nil, fmt.Errorf("recover: decode checkpoint: %w", err)
	}
	ck := &Checkpoint{Program: w.Program, Epoch: w.Epoch, Seq: w.Seq, Procs: make([]ProcState, len(w.Procs))}
	for i, pw := range w.Procs {
		exports, err := toMap(pw.Exports)
		if err != nil {
			return nil, err
		}
		imports, err := toMap(pw.Imports)
		if err != nil {
			return nil, err
		}
		ck.Procs[i] = ProcState{Rank: pw.Rank, Exports: exports, Imports: imports}
	}
	return ck, nil
}

// ckptWire is a Checkpoint as it is laid out: each ProcState map becomes a
// list sorted by connection key, so one checkpoint has one encoding.
type ckptWire struct {
	Program    string
	Epoch, Seq uint64
	Procs      []procWire
}

type procWire struct {
	Rank    int
	Exports []keyed[buffer.ManagerState]
	Imports []keyed[ImportState]
}

// keyed is one map entry: a connection key and its value.
type keyed[V any] struct {
	Conn string
	Val  V
}

func toList[V any](m map[string]V) []keyed[V] {
	out := make([]keyed[V], 0, len(m))
	for k, v := range m {
		out = append(out, keyed[V]{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Conn < out[j].Conn })
	return out
}

// toMap inverts toList (an empty list is a nil map).
func toMap[V any](l []keyed[V]) (map[string]V, error) {
	var m map[string]V
	for i, e := range l {
		if i > 0 && e.Conn <= l[i-1].Conn {
			return nil, fmt.Errorf("recover: decode checkpoint: connection %q listed after %q", e.Conn, l[i-1].Conn)
		}
		if m == nil {
			m = make(map[string]V, len(l))
		}
		m[e.Conn] = e.Val
	}
	return m, nil
}

func (w *ckptWire) fields(c *wire.Ctl) {
	c.Str(&w.Program)
	c.U64(&w.Epoch)
	c.U64(&w.Seq)
	wire.List(c, &w.Procs, (*procWire).fields)
}

func (p *procWire) fields(c *wire.Ctl) {
	c.Int(&p.Rank)
	wire.List(c, &p.Exports, func(e *keyed[buffer.ManagerState], c *wire.Ctl) {
		c.Str(&e.Conn)
		managerState(c, &e.Val)
	})
	wire.List(c, &p.Imports, func(e *keyed[ImportState], c *wire.Ctl) {
		c.Str(&e.Conn)
		floats(c, &e.Val.Issued)
	})
}

func managerState(c *wire.Ctl, s *buffer.ManagerState) {
	floats(c, &s.Exports)
	c.Bool(&s.Finished)
	wire.List(c, &s.Entries, func(e *buffer.EntryState, c *wire.Ctl) {
		c.F64(&e.TS)
		floats(c, &e.Data)
		c.Bool(&e.Sent)
	})
	wire.List(c, &s.Requests, func(r *buffer.RequestState, c *wire.Ctl) {
		c.F64(&r.X)
		c.Bool(&r.Decided)
		res := int(r.Result)
		c.Int(&res)
		r.Result = match.Result(res)
		c.F64(&r.MatchTS)
		for _, b := range [...]*bool{&r.ViaBuddy, &r.Verified, &r.DataSent, &r.Released} {
			c.Bool(b)
		}
		c.F64(&r.CandTS)
	})
}

func floats(c *wire.Ctl, v *[]float64) {
	wire.List(c, v, func(f *float64, c *wire.Ctl) { c.F64(f) })
}

// DirStore keeps one checkpoint file per program in a directory, written
// with the classic tmp-file-plus-rename dance so a crash mid-save leaves the
// previous checkpoint intact.
type DirStore struct {
	dir string
}

// NewDirStore returns a store rooted at dir, creating it if needed.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recover: checkpoint dir: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *DirStore) Dir() string { return s.dir }

func (s *DirStore) path(program string) string {
	// Program names are path-hostile in principle; flatten separators.
	safe := strings.NewReplacer("/", "_", string(filepath.Separator), "_").Replace(program)
	return filepath.Join(s.dir, safe+".ckpt")
}

// Save implements Store.
func (s *DirStore) Save(ck *Checkpoint) error {
	b, err := Encode(ck)
	if err != nil {
		return err
	}
	final := s.path(ck.Program)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("recover: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("recover: commit checkpoint: %w", err)
	}
	return nil
}

// Load implements Store.
func (s *DirStore) Load(program string) (*Checkpoint, error) {
	b, err := os.ReadFile(s.path(program))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("recover: read checkpoint: %w", err)
	}
	return Decode(b)
}

// MemStore is an in-memory Store for tests and single-process harness runs.
// Checkpoints are kept encoded, so a Load returns state fully isolated from
// the saver's live structures — exactly like a file store would.
type MemStore struct {
	mu   sync.Mutex
	byPn map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{byPn: make(map[string][]byte)} }

// Save implements Store.
func (s *MemStore) Save(ck *Checkpoint) error {
	b, err := Encode(ck)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.byPn[ck.Program] = b
	s.mu.Unlock()
	return nil
}

// Load implements Store.
func (s *MemStore) Load(program string) (*Checkpoint, error) {
	s.mu.Lock()
	b, ok := s.byPn[program]
	s.mu.Unlock()
	if !ok {
		return nil, nil
	}
	return Decode(b)
}
