package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// rep is what one repetition of a workload measured. Latencies are kept
// raw (ns) so percentiles are exact and carry their sample counts.
type rep struct {
	setupS float64
	wallS  float64
	ops    int // completed in the measured phase
	failed int // failed or refused (each counts as missing)
	// crashPending counts ops cut short by an injected crash: in the
	// paper's model a crashed process takes no further steps, so its
	// pending op is neither completed nor failed.
	crashPending int
	upd, scan    []int64
	cpuUS        float64
	mallocs      uint64
	allocBytes   uint64
	liveHeap     uint64
	problems     []string // correctness violations
	virt         *virtual // simulator workload only
	load         loadStats
}

// virtual holds the simulator workload's virtual-time results, in units
// of the message delay D. They must repeat exactly for a given seed.
type virtual struct {
	OpsPerKD                         float64 // completed ops per 1000 D
	UpdP50, UpdP99, ScanP50, ScanP99 float64
	Msgs, Events                     int64
	Ticks                            int64 // virtual length of the measured phases
}

// span brackets the measured phase: wall clock, process CPU time and
// allocation counters, all whole-process.
type span struct {
	t0 time.Time
	ru syscall.Rusage
	ms runtime.MemStats
}

func beginSpan() *span {
	s := &span{}
	runtime.ReadMemStats(&s.ms)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &s.ru) // cannot fail for RUSAGE_SELF
	s.t0 = time.Now()
	return s
}

// end adds the phase to r (the simulator workload measures one phase per
// world and sums them).
func (s *span) end(r *rep) {
	r.wallS += time.Since(s.t0).Seconds()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.cpuUS += tvUS(ru.Utime) + tvUS(ru.Stime) - tvUS(s.ru.Utime) - tvUS(s.ru.Stime)
	r.mallocs += ms.Mallocs - s.ms.Mallocs
	r.allocBytes += ms.TotalAlloc - s.ms.TotalAlloc
}

func tvUS(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e6 + float64(tv.Usec) }

// retainedHeap is how much heap *root keeps reachable: the heap after
// collection with it referenced, minus the heap after collection with it
// released. Whatever else the process holds (the op list, results, the
// descriptors of goroutines that have exited) is in both and cancels. Each
// collection runs twice: a sync.Pool keeps its contents through one cycle.
func retainedHeap[T any](root *T) uint64 {
	with := heapAfterGC()
	var zero T
	*root = zero
	without := heapAfterGC()
	if with < without {
		return 0
	}
	return with - without
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// percentile is the nearest-rank p-quantile of sorted values.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(sorted[idx])
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spreadPct is (max−min)/median in percent.
func spreadPct(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	return 100 * (hi - lo) / m
}
