package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"mpsnap/internal/loadgen"
)

// The wallclock experiment is the repository's real-socket throughput
// number: loadgen meshes (TCP loopback, svc batching, closed loop) swept
// over engines × client counts. Everything else in this package measures
// virtual time (ops per D on the simulator); this one measures what a
// deployment would: wall-clock ops/sec and client-visible latency
// percentiles.

// WallclockConfig parameterizes the sweep.
type WallclockConfig struct {
	// Engines and Clients span the sweep grid.
	Engines []string
	Clients []int
	// N is the mesh size, Duration/Warmup the per-run windows.
	N                int
	Duration, Warmup time.Duration
	// ScanPct is the operation mix (see loadgen.Config).
	ScanPct int
	Seed    int64
}

// Wallclock is the full experiment result, serialized to
// BENCH_wallclock.json by cmd/asobench -e wallclock.
type Wallclock struct {
	Env      Env              `json:"env"`
	N        int              `json:"n"`
	Duration float64          `json:"durationSec"`
	Warmup   float64          `json:"warmupSec"`
	ScanPct  int              `json:"scanPct"`
	Seed     int64            `json:"seed"`
	Points   []loadgen.Result `json:"points"`

	// baseline is the committed artifact Check compares against.
	baseline *Wallclock
}

// LoadWallclock reads a committed BENCH_wallclock.json.
func LoadWallclock(path string) (*Wallclock, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var w Wallclock
	if err := json.Unmarshal(blob, &w); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &w, nil
}

// RunWallclock sweeps engines × client counts. Runs are sequential (each
// run owns the machine; overlapping meshes would measure scheduler
// contention, not the transport). baseline, when non-nil, is the committed
// artifact the result's Check compares against.
func RunWallclock(cfg WallclockConfig, baseline *Wallclock) (Wallclock, error) {
	out := Wallclock{
		Env: CaptureEnv(), N: cfg.N,
		Duration: cfg.Duration.Seconds(), Warmup: cfg.Warmup.Seconds(),
		ScanPct: cfg.ScanPct, Seed: cfg.Seed, baseline: baseline,
	}
	for _, eng := range cfg.Engines {
		for _, c := range cfg.Clients {
			res, err := loadgen.Run(loadgen.Config{
				Engine: eng, N: cfg.N, Clients: c,
				Duration: cfg.Duration, Warmup: cfg.Warmup,
				ScanPct: cfg.ScanPct, Seed: cfg.Seed,
			})
			if err != nil {
				return out, fmt.Errorf("wallclock %s clients=%d: %w", eng, c, err)
			}
			out.Points = append(out.Points, res)
		}
	}
	return out, nil
}

// point finds the sweep point for (engine, clients); nil if absent.
func (w *Wallclock) point(engine string, clients int) *loadgen.Result {
	for i := range w.Points {
		if p := &w.Points[i]; p.Engine == engine && p.Clients == clients {
			return p
		}
	}
	return nil
}

// wallclockFloor is the fraction of the committed artifact's ops/sec that
// every measured (engine, clients) point must reach. It is a floor, not a
// noise band: the artifact comes from 2 s windows on another host and the
// CI sweep uses sub-second ones, so only a collapse — the kind a broken
// flush window or a serialized dispatch path produces — should trip it.
// The gate is per point, so the paper's own eqaso cannot regress behind a
// faster challenger.
const wallclockFloor = 1.0 / 3

// Check enforces the per-engine floor: every measured point must exist in
// the baseline (same mesh size and mix) and reach wallclockFloor of its
// ops/sec. All failing points are reported, not just the first.
func (w Wallclock) Check() error {
	b := w.baseline
	if b == nil {
		return errors.New("wallclock: no baseline artifact loaded")
	}
	if b.N != w.N || b.ScanPct != w.ScanPct {
		return fmt.Errorf("wallclock: baseline measured n=%d scans=%d%%, this run n=%d scans=%d%%",
			b.N, b.ScanPct, w.N, w.ScanPct)
	}
	var errs []error
	for _, p := range w.Points {
		base := b.point(p.Engine, p.Clients)
		if base == nil {
			errs = append(errs, fmt.Errorf("wallclock: %s clients=%d is missing from the baseline", p.Engine, p.Clients))
			continue
		}
		if floor := wallclockFloor * base.OpsPerSec; p.OpsPerSec < floor {
			errs = append(errs, fmt.Errorf("wallclock: %s clients=%d reached %.0f ops/s, floor is %.0f (%.2f of the baseline's %.0f)",
				p.Engine, p.Clients, p.OpsPerSec, floor, wallclockFloor, base.OpsPerSec))
		}
	}
	return errors.Join(errs...)
}

// Render formats the experiment as the human-readable table printed by
// cmd/asobench -e wallclock.
func (w Wallclock) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Wall-clock saturation: %d-node TCP loopback mesh, closed loop, %d%% scans, %.1fs window (%s, %d cpus)\n",
		w.N, w.ScanPct, w.Duration, w.Env.GoVersion, w.Env.NumCPU)
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "engine\tclients\tops/s\tupd p50\tupd p99\tscan p50\tscan p99\tamort\tallocs/op")
	for _, p := range w.Points {
		amort := 0.0
		if p.SvcProtoUpdates+p.SvcProtoScans > 0 {
			amort = float64(p.SvcUpdates+p.SvcScans) / float64(p.SvcProtoUpdates+p.SvcProtoScans)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.1fms\t%.1fms\t%.1fms\t%.1fms\t%.1fx\t%.0f\n",
			p.Engine, p.Clients, p.OpsPerSec,
			p.Update.P50/1e3, p.Update.P99/1e3, p.Scan.P50/1e3, p.Scan.P99/1e3,
			amort, p.AllocsPerOp)
	}
	tw.Flush()
	return sb.String()
}
