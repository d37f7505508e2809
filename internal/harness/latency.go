package harness

import (
	"fmt"
	"time"
)

// LatencyPoint is one entry of the network-latency ablation: the buddy-help
// on/off pair of runs (p_s's memcpys are With/Without.SlowStats.Copies, the
// saving CopiesSaved) at one injected one-way latency.
type LatencyPoint struct {
	Latency time.Duration
	*TubResult
}

// RunLatencySweep measures how one-way network latency affects the
// buddy-help saving. The paper ran on Gigabit Ethernet (~100 µs); on higher
// latency links the buddy-help message arrives later relative to the slow
// process's export stream, shrinking the set of copies it can skip.
func RunLatencySweep(base Figure4Config, latencies []time.Duration) ([]LatencyPoint, error) {
	out := make([]LatencyPoint, 0, len(latencies))
	for _, lat := range latencies {
		cfg := base
		cfg.NetLatency = lat
		cfg.Name = fmt.Sprintf("lat=%v", lat)
		res, err := RunTub(cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: latency sweep %v: %w", lat, err)
		}
		out = append(out, LatencyPoint{Latency: lat, TubResult: res})
	}
	return out, nil
}
