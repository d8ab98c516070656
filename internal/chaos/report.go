package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"mpsnap/internal/monitor"
	"mpsnap/internal/sim"
)

// Report is the machine-readable outcome of one chaos run, emitted by
// `aso chaos -json`.
type Report struct {
	Backend  string   `json:"backend"`
	Engine   string   `json:"engine"`
	OK       bool     `json:"ok"`
	Schedule Schedule `json:"schedule"`
	// ScheduleHash fingerprints the fault schedule: two runs with equal
	// hashes injected the exact same faults.
	ScheduleHash string `json:"scheduleHash"`
	Ops          int    `json:"ops"`
	Pending      int    `json:"pending"`
	// Violations are the checker's complaints (empty when OK).
	Violations []string `json:"violations,omitempty"`
	// Blocked lists operations crash-aborted at the end of the run.
	Blocked []string `json:"blocked,omitempty"`
	// HistoryHash fingerprints the recorded history JSON; on the sim
	// backend it is identical across runs with the same seed.
	HistoryHash string     `json:"historyHash,omitempty"`
	Stats       *sim.Stats `json:"stats,omitempty"`
	NetDrops    int64      `json:"netDrops,omitempty"`
	NetHeld     int64      `json:"netHeld,omitempty"`
	NetCorrupt  int64      `json:"netCorrupt,omitempty"`
	// TracePath names the JSONL observability trace dumped for this run
	// (set on failures when tracing is armed, or always with TraceAlways).
	TracePath    string `json:"tracePath,omitempty"`
	TraceDropped uint64 `json:"traceDropped,omitempty"`
	// MonitorStats / MonitorViolations are the streaming invariant
	// monitor's verdict (monitor armed in churn mode or via Config.
	// Monitor); a monitor violation fails the report like a checker one.
	MonitorStats      *monitor.Stats `json:"monitor,omitempty"`
	MonitorViolations []string       `json:"monitorViolations,omitempty"`
	// MonitorPath / MonitorTracePath name the first-violation dumps.
	MonitorPath      string `json:"monitorPath,omitempty"`
	MonitorTracePath string `json:"monitorTracePath,omitempty"`
}

// NewReport condenses a Result.
func NewReport(backend, eng string, res *Result) Report {
	rep := Report{
		Backend:      backend,
		Engine:       eng,
		Schedule:     res.Schedule,
		ScheduleHash: res.Schedule.Hash(),
		Blocked:      res.Blocked,
		Stats:        res.Stats,
		NetDrops:     res.NetDrops,
		NetHeld:      res.NetHeld,
		NetCorrupt:   res.NetCorrupt,
		TracePath:    res.TracePath,
		TraceDropped: res.TraceDropped,
	}
	if res.Hist != nil {
		rep.Ops = len(res.Hist.Ops)
		for _, op := range res.Hist.Ops {
			if op.Pending() {
				rep.Pending++
			}
		}
		var buf bytes.Buffer
		if err := res.Hist.DumpJSON(&buf); err == nil {
			rep.HistoryHash = hashBytes(buf.Bytes())
		}
	}
	if res.Check != nil {
		rep.OK = res.Check.OK
		rep.Violations = append(rep.Violations, res.Check.Violations...)
	}
	rep.MonitorStats = res.MonitorStats
	rep.MonitorViolations = append(rep.MonitorViolations, res.MonitorViolations...)
	rep.MonitorPath = res.MonitorPath
	rep.MonitorTracePath = res.MonitorTracePath
	if len(res.MonitorViolations) > 0 {
		rep.OK = false
	}
	return rep
}

// Hash fingerprints the schedule (first 16 hex digits of SHA-256 over its
// canonical JSON).
func (s Schedule) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		return "unhashable"
	}
	return hashBytes(b)
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
