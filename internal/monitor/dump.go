package monitor

import (
	"encoding/json"
	"io"
	"os"

	"mpsnap/internal/history"
)

// opJSON is the dump representation of one operation, matching the field
// names of the history package's stable JSON format so dump transcripts
// can be eyeballed next to `aso chaos -dump` histories.
type opJSON struct {
	ID     int      `json:"id"`
	Node   int      `json:"node"`
	Client int      `json:"client,omitempty"`
	Type   string   `json:"type"`
	Seq    int      `json:"seq,omitempty"`
	Arg    string   `json:"arg,omitempty"`
	Snap   []string `json:"snap,omitempty"`
	Inv    int64    `json:"inv"`
	Resp   int64    `json:"resp"`
}

func opToJSON(op history.Op) opJSON {
	jo := opJSON{
		ID:     op.ID,
		Node:   op.Node,
		Client: op.Client,
		Seq:    op.Seq,
		Inv:    int64(op.Inv),
		Resp:   int64(op.Resp),
	}
	if op.Type == history.Update {
		jo.Type = "update"
		jo.Arg = op.Arg
	} else {
		jo.Type = "scan"
		jo.Snap = op.Snap
	}
	return jo
}

// Dump is the JSON document WriteDump produces: the first violations with
// their evidence, running counters, and the minimized window transcript —
// the most recent completed operations, oldest first, enough to replay
// the window that tripped the check.
type Dump struct {
	N          int         `json:"n"`
	Window     int64       `json:"window"`
	Stats      Stats       `json:"stats"`
	Violations []Violation `json:"violations"`
	Transcript []opJSON    `json:"transcript"`
}

// WriteDump writes the violation dump as indented JSON.
func (m *Monitor) WriteDump(w io.Writer) error {
	m.mu.Lock()
	stats := m.stats
	stats.ByClass = make(map[string]int, len(m.stats.ByClass))
	for k, v := range m.stats.ByClass {
		stats.ByClass[k] = v
	}
	d := Dump{
		N:          m.cfg.N,
		Window:     int64(m.cfg.Window),
		Stats:      stats,
		Violations: append([]Violation(nil), m.violations...),
	}
	for i := 0; i < len(m.transcript); i++ {
		op := m.transcript[(m.trStart+i)%len(m.transcript)]
		d.Transcript = append(d.Transcript, opToJSON(op))
	}
	m.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DumpFile writes the violation dump to path.
func (m *Monitor) DumpFile(path string) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteDump(fd); err != nil {
		fd.Close()
		return err
	}
	return fd.Close()
}
