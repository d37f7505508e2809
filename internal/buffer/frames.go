package buffer

import (
	"math/bits"
	"sync"
)

// A Frames parks at most framesMaxBytes and a Get examines the framesProbe
// newest frames of its class (at steady state the newest fits); race builds
// fill handed-back frames with poisonByte.
const (
	framesMaxBytes = 16 << 20
	framesProbe    = 4
	poisonByte     = 0xDB
)

// Frames is the pool of wire frames ([]byte) the transport backends, the
// coupled data plane and the collectives draw from. Class k parks
// capacities in [2^k, 2^(k+1)) and a Get looks only in its own class, so it
// never receives over twice what it asked for. A frame is handed back (Put)
// by its one holder after its last read; race builds poison it to its full
// capacity, so anything still aliasing it fails its test instead of passing
// by luck. The zero value is ready and safe for concurrent use; a nil
// *Frames allocates every Get and drops every Put.
type Frames struct {
	mu    sync.Mutex
	class [][][]byte // made by the first Put
	stats FrameStats
}

// FrameStats counts Gets served (Hits) and allocated (Misses), and the
// capacity parked now (Held).
type FrameStats struct {
	Hits, Misses uint64
	Held         int
}

// Get returns a frame of length n for the caller to overwrite: the newest
// parked one of n's class that fits, else a fresh one.
func (f *Frames) Get(n int) []byte {
	if f == nil {
		return make([]byte, n)
	}
	f.mu.Lock()
	if k := bits.Len(uint(n)) - 1; k >= 0 && k < len(f.class) {
		s := f.class[k]
		for i := len(s) - 1; i >= 0 && i >= len(s)-framesProbe; i-- {
			if b := s[i]; cap(b) >= n {
				s[i], s[len(s)-1] = s[len(s)-1], nil
				f.class[k] = s[:len(s)-1]
				f.stats.Held -= cap(b)
				f.stats.Hits++
				f.mu.Unlock()
				return b[:n]
			}
		}
	}
	f.stats.Misses++
	f.mu.Unlock()
	return make([]byte, n)
}

// Put parks a frame its holder is done with, within framesMaxBytes.
func (f *Frames) Put(b []byte) {
	if f == nil || cap(b) == 0 {
		return
	}
	if raceEnabled {
		b = b[:cap(b)]
		for i := range b {
			b[i] = poisonByte
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stats.Held+cap(b) > framesMaxBytes {
		return
	}
	if f.class == nil {
		f.class = make([][][]byte, bits.UintSize)
	}
	k := bits.Len(uint(cap(b))) - 1
	f.class[k] = append(f.class[k], b)
	f.stats.Held += cap(b)
}

// Stats returns a snapshot of the counters (zero for a nil pool).
func (f *Frames) Stats() FrameStats {
	if f == nil {
		return FrameStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}
