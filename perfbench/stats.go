package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail is a percentile as reported: the value, the percentile it really is,
// and the sample count it came from.
type tail struct {
	Value float64 `json:"value"`
	Pct   float64 `json:"pct"`
	N     int     `json:"n"`
}

// percentile returns the nearest-rank value of the highest percentile at or
// below want that has at least minBeyond samples beyond it. With fewer than
// 2*minBeyond samples it falls back to the median. It sorts xs in place.
func percentile(xs []float64, want float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	sort.Float64s(xs)
	pct := want
	if n < 2*minBeyond {
		pct = 50
	} else if lim := 100 * float64(n-minBeyond) / float64(n); lim < pct {
		pct = math.Floor(lim*10) / 10
	}
	rank := int(math.Ceil(pct*float64(n)/100 - 1e-9))
	rank = min(max(rank, 1), n)
	return tail{Value: xs[rank-1], Pct: pct, N: n}
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50).Value
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the Go runtime counters the benchmark reports.
type runtimeSample struct {
	heapBytes  uint64  // live heap objects, as MemStats.HeapAlloc
	allocBytes uint64  // cumulative bytes allocated
	gcCPU      float64 // cumulative GC CPU seconds
	totalCPU   float64 // cumulative CPU seconds available to the runtime
	gcs        uint64  // completed GC cycles
}

var runtimeNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		heapBytes:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		gcs:        s[4].Value.Uint64(),
	}
}

// readAllocs returns the cumulative count of heap allocations.
func readAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples the live heap every interval until stop is closed and
// returns the highest sample.
func heapPeak(interval time.Duration, stop <-chan struct{}) uint64 {
	t := time.NewTicker(interval)
	defer t.Stop()
	peak := readRuntime().heapBytes
	for {
		select {
		case <-stop:
			return max(peak, readRuntime().heapBytes)
		case <-t.C:
			peak = max(peak, readRuntime().heapBytes)
		}
	}
}

// schedule is an open-loop timetable: operation k is due at start + k*every.
// Lateness is how long after its due time an operation actually started.
type schedule struct {
	start time.Time
	every time.Duration
}

func (s schedule) due(k int) time.Time { return s.start.Add(time.Duration(k) * s.every) }

// late returns how late operation k started when it started at now.
func (s schedule) late(k int, now time.Time) time.Duration {
	if d := now.Sub(s.due(k)); d > 0 {
		return d
	}
	return 0
}
