package bench

import (
	"errors"
	"fmt"
	"time"

	"mpsnap/internal/loadgen"
)

// The wallclock experiment is the repository's real-socket throughput
// floor: loadgen meshes (TCP loopback, svc batching, closed loop), one run
// per gated engine. Everything else in this package measures virtual time
// (ops per D on the simulator); this one measures what a deployment would:
// wall-clock ops/sec and client-visible latency percentiles. It measures
// exactly what it gates, so it has one parameter set; wider client sweeps
// are `aso load -clients N` by hand.

const wallclockArtifact = "BENCH_wallclock.json"

// wallclockLoad is the run every gated engine gets (Engine and Seed are
// filled per run): saturated at 256 closed-loop clients.
var wallclockLoad = loadgen.Config{
	N: 4, Clients: 256, ScanPct: 10,
	Duration: 2 * time.Second, Warmup: 500 * time.Millisecond,
}

// wallclockFloor is the fraction of the committed artifact's ops/sec that
// every engine must reach. It is a floor, not a noise band: the artifact
// comes from another host, so only a collapse — the kind a broken flush
// window or a serialized dispatch path produces — should trip it. The gate
// is per engine, so the paper's own eqaso cannot regress behind a faster
// challenger.
const wallclockFloor = 1.0 / 3

// wallclock runs the gated engines one after the other (each run owns the
// machine; overlapping meshes would measure scheduler contention, not the
// transport).
func wallclock(p Params) (*Report, error) {
	// The baseline is read before the run: -json may name the very file
	// it comes from.
	var base loadgen.Config
	var basePoints []loadgen.Result
	_, loadErr := Load(wallclockArtifact, &base, &basePoints)
	var points []loadgen.Result
	for _, eng := range []string{"eqaso", "acr", "fastsnap"} {
		cfg := wallclockLoad
		cfg.Engine, cfg.Seed = eng, p.Seed
		res, err := loadgen.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", eng, err)
		}
		points = append(points, res)
	}
	r := LoadReport(wallclockLoad, points...)
	r.check = func() error {
		if loadErr != nil {
			return fmt.Errorf("wallclock: load baseline: %w", loadErr)
		}
		return checkWallclock(wallclockLoad, base, points, basePoints)
	}
	return r, nil
}

// checkWallclock enforces the per-engine floor: the baseline must have
// measured the same workload, and every point must exist in it and reach
// wallclockFloor of its ops/sec. All failing points are reported, not just
// the first.
func checkWallclock(cfg, base loadgen.Config, points, basePoints []loadgen.Result) error {
	if base != cfg {
		return fmt.Errorf("wallclock: baseline measured %+v, this run %+v", base, cfg)
	}
	var errs []error
	for _, p := range points {
		b := loadPoint(basePoints, p.Engine, p.Clients)
		if b == nil {
			errs = append(errs, fmt.Errorf("wallclock: %s clients=%d is missing from the baseline", p.Engine, p.Clients))
			continue
		}
		if floor := wallclockFloor * b.OpsPerSec; p.OpsPerSec < floor {
			errs = append(errs, fmt.Errorf("wallclock: %s clients=%d reached %.0f ops/s, floor is %.0f (%.2f of the baseline's %.0f)",
				p.Engine, p.Clients, p.OpsPerSec, floor, wallclockFloor, b.OpsPerSec))
		}
	}
	return errors.Join(errs...)
}

// loadPoint finds the run of (engine, clients); nil if absent.
func loadPoint(points []loadgen.Result, engine string, clients int) *loadgen.Result {
	for i := range points {
		if p := &points[i]; p.Engine == engine && p.Clients == clients {
			return p
		}
	}
	return nil
}

// LoadReport is the report of wall-clock load runs, one table row per run:
// the wallclock experiment's three and `aso load`'s one. params is the
// loadgen.Config the runs share.
func LoadReport(params loadgen.Config, points ...loadgen.Result) *Report {
	env := CaptureEnv()
	t := Table{Title: fmt.Sprintf("Wall-clock load: TCP loopback mesh, %d%% scans, %.1fs window (%s, %d cpus)\n",
		params.ScanPct, params.Duration.Seconds(), env.GoVersion, env.NumCPU)}
	t.Row("engine\tn\tclients\tops/s\terrors\tupd p50\tupd p99\tscan p50\tscan p99\tamort\tallocs/op")
	for _, p := range points {
		amort := ratio(float64(p.SvcUpdates+p.SvcScans), float64(p.SvcProtoUpdates+p.SvcProtoScans))
		t.Row("%s\t%d\t%d\t%.0f\t%d\t%.1fms\t%.1fms\t%.1fms\t%.1fms\t%.1fx\t%.0f",
			p.Engine, p.N, p.Clients, p.OpsPerSec, p.Errors,
			p.Update.P50/1e3, p.Update.P99/1e3, p.Scan.P50/1e3, p.Scan.P99/1e3,
			amort, p.AllocsPerOp)
	}
	return &Report{Env: env, Experiment: "load", Seed: params.Seed, Params: params, Points: points, Table: t}
}
