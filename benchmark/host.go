package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostEnv is recorded in every result file.
type hostEnv struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
}

func readEnv() hostEnv {
	e := hostEnv{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

// spinIters is sized to about 200 ms of one quiet core of the 2-vCPU
// reference guest. The work is fixed; only the wall time it takes varies,
// and it varies with what else the host is doing.
const spinIters = 95_000_000

var spinSink uint64

// spinProbe runs the fixed spin loop and returns its wall time in ms.
func spinProbe() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// cpuSample is the aggregate cpu line of /proc/stat, in jiffies: all time
// accounted to the guest's processors, and the part of it the host took
// while a processor had work to run (steal).
type cpuSample struct{ total, steal uint64 }

func readCPU() cpuSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuSample{}
	}
	var c cpuSample
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseUint(s, 10, 64)
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// stealPct is the share of processor time since c that the host took.
func (c cpuSample) stealPct() float64 {
	now := readCPU()
	if now.total <= c.total {
		return 0
	}
	return 100 * float64(now.steal-c.steal) / float64(now.total-c.total)
}

// A repetition from which the host took more than stealLimitPct of the
// guest's processor time is run again, once the host is quiet, as long as
// the run has not used up redoAllowance: steal comes in episodes of a
// minute or so (13% over a run of tcp-eqaso-scan moved its update_p50_us
// by 44%), and a run has 180 s. Steal is a fact about the host, not about
// the program, so dropping on it does not select among the program's
// results. What cannot be redone in time is kept and reported as it is.
const (
	stealLimitPct = 3.0
	quietStealPct = 1.0
	redoAllowance = 100 * time.Second
)

// waitQuietHost returns when a spin probe has run with less than
// quietStealPct stolen, or at the deadline. It has to keep a processor
// busy to find out: an idle guest is not stolen from.
func waitQuietHost(deadline time.Time) {
	for time.Now().Before(deadline) {
		c := readCPU()
		spinProbe()
		if c.stealPct() < quietStealPct {
			return
		}
		time.Sleep(time.Second)
	}
}

// hostProbe brackets a workload run with the noise diagnostics. Apart from
// the redo rule above they gate nothing: they tell a noisy host from a
// regression.
type hostProbe struct {
	spinBefore float64
	cpu        cpuSample
}

func beginHostProbe() hostProbe {
	return hostProbe{spinBefore: spinProbe(), cpu: readCPU()}
}

func (p hostProbe) end(repSpread float64, redone int) map[string]float64 {
	return map[string]float64{
		"host.steal_pct":      p.cpu.stealPct(),
		"host.spin_ms_before": p.spinBefore,
		"host.spin_ms_after":  spinProbe(),
		"host.rep_spread_pct": repSpread,
		"host.reps_redone":    float64(redone),
	}
}
