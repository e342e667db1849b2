package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(xs) {
		i = len(xs)
	}
	return xs[i-1]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// procSnap is a point-in-time reading of the process counters the
// benchmark turns into per-window rates.
type procSnap struct {
	at       time.Time
	cpu      float64 // user+sys seconds (getrusage)
	allocB   float64 // cumulative heap bytes allocated
	gcCPU    float64 // runtime estimate of GC CPU seconds
	totalCPU float64 // runtime estimate of all CPU seconds
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func snapshot() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := procSnap{
		at:  time.Now(),
		cpu: tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	s.allocB = float64(samples[0].Value.Uint64())
	s.gcCPU = samples[1].Value.Float64()
	s.totalCPU = samples[2].Value.Float64()
	return s
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size (getrusage maxrss,
// which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// window is what happened between two snapshots.
type window struct {
	wall, cpu, allocMB, gcPct float64
}

func between(a, b procSnap) window {
	w := window{
		wall:    b.at.Sub(a.at).Seconds(),
		cpu:     b.cpu - a.cpu,
		allocMB: (b.allocB - a.allocB) / (1 << 20),
	}
	if d := b.totalCPU - a.totalCPU; d > 0 {
		w.gcPct = 100 * (b.gcCPU - a.gcCPU) / d
	}
	return w
}
