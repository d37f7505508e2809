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
	"strings"
	"sync"

	"repro/internal/buffer"
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

// Encode serializes a checkpoint (gob, via the wire package). Checkpoints
// keep gob: written once per checkpoint, nested maps, covered by FuzzCheckpoint.
func Encode(ck *Checkpoint) ([]byte, error) { return wire.Marshal(ck) }

// Decode deserializes a checkpoint produced by Encode.
func Decode(b []byte) (*Checkpoint, error) {
	ck := new(Checkpoint)
	if err := wire.Unmarshal(b, ck); err != nil {
		return nil, fmt.Errorf("recover: decode checkpoint: %w", err)
	}
	return ck, nil
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
