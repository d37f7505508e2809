package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// base anchors the benchmark's monotonic clock; every timestamp the
// benchmark records is nanoseconds since base.
var base = time.Now()

func nowNS() int64 { return int64(time.Since(base)) }

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two nearest ranks; xs need not be sorted and is
// left untouched. It returns absent for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return absent
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method), the
// rule the acceptance check of the benchmark is stated in. It needs at least
// two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// nsToUS converts a sample of nanosecond durations to microseconds.
func nsToUS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// cpuMicros returns the user+system CPU time this process has used.
func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the high-water mark of this process's resident set.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return absent
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return absent
			}
			return kb / 1024
		}
	}
	return absent
}

// usage is the process-wide cost read at the two ends of a timed epoch.
type usage struct {
	ns      int64
	cpuUS   float64
	alloc   uint64
	mallocs uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{ns: nowNS(), cpuUS: cpuMicros(), alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// medianBatchNS times reps batches of n calls of op and returns the median
// batch's cost per call in nanoseconds, after one untimed batch.
func medianBatchNS(reps, n int, op func()) float64 {
	for i := 0; i < n; i++ {
		op()
	}
	per := make([]float64, reps)
	for r := range per {
		t0 := nowNS()
		for i := 0; i < n; i++ {
			op()
		}
		per[r] = float64(nowNS()-t0) / float64(n)
	}
	return median(per)
}

// machineRef measures three reference operations of the machine itself, so a
// drift of the machine can be told from a change of the program: a 128 KiB
// and a 1 MiB memcpy (microseconds) and a round trip over an unbuffered
// channel between two goroutines (microseconds).
type machineRef struct{ memcpy128K, memcpy1M, pingpong float64 }

func measureMachine() machineRef {
	src := make([]float64, 1<<17)
	dst := make([]float64, 1<<17)
	for i := range src {
		src[i] = float64(i)
	}
	var ref machineRef
	ref.memcpy128K = medianBatchNS(9, 8, func() { copy(dst[:1<<14], src[:1<<14]) }) / 1e3
	ref.memcpy1M = medianBatchNS(9, 4, func() { copy(dst, src) }) / 1e3
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	ref.pingpong = medianBatchNS(9, 64, func() { ping <- struct{}{}; <-pong }) / 1e3
	close(ping)
	return ref
}
