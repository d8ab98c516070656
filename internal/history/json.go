package history

import (
	"encoding/json"
	"fmt"
	"io"

	"mpsnap/internal/rt"
)

// jsonHistory is the stable on-disk representation of a history, so
// histories recorded in one process (or by a user's own deployment) can be
// checked offline by the tooling (`aso sim -check file.json`).
type jsonHistory struct {
	N   int      `json:"n"`
	Ops []jsonOp `json:"ops"`
}

type jsonOp struct {
	ID     int      `json:"id"`
	Node   int      `json:"node"`
	Client int      `json:"client,omitempty"`
	Type   string   `json:"type"` // "update" | "scan"
	Arg    string   `json:"arg,omitempty"`
	Snap   []string `json:"snap,omitempty"`
	Inv    int64    `json:"inv"`
	Resp   int64    `json:"resp"` // -1 = pending
}

// DumpJSON writes the history in the stable JSON format.
func (h *History) DumpJSON(w io.Writer) error {
	out := jsonHistory{N: h.N}
	for _, op := range h.Ops {
		jo := jsonOp{
			ID:     op.ID,
			Node:   op.Node,
			Client: op.Client,
			Inv:    int64(op.Inv),
			Resp:   int64(op.Resp),
		}
		if op.Type == Update {
			jo.Type = "update"
			jo.Arg = op.Arg
		} else {
			jo.Type = "scan"
			jo.Snap = op.Snap
		}
		out.Ops = append(out.Ops, jo)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadJSON reads a history written by DumpJSON (or hand-authored in the
// same format).
func LoadJSON(r io.Reader) (*History, error) {
	var in jsonHistory
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("history: decode: %w", err)
	}
	if in.N <= 0 {
		return nil, fmt.Errorf("history: invalid node count %d", in.N)
	}
	ops := make([]*Op, 0, len(in.Ops))
	for i, jo := range in.Ops {
		if jo.Node < 0 || jo.Node >= in.N {
			return nil, fmt.Errorf("history: op %d has node %d out of [0,%d)", i, jo.Node, in.N)
		}
		op := &Op{ID: jo.ID, Node: jo.Node, Client: jo.Client, Inv: rt.Ticks(jo.Inv), Resp: rt.Ticks(jo.Resp)}
		switch jo.Type {
		case "update":
			op.Type = Update
			op.Arg = jo.Arg
		case "scan":
			op.Type = Scan
			if !op.Pending() {
				if len(jo.Snap) != in.N {
					return nil, fmt.Errorf("history: op %d scan has %d segments, want %d", i, len(jo.Snap), in.N)
				}
				op.Snap = jo.Snap
			}
		default:
			return nil, fmt.Errorf("history: op %d has unknown type %q", i, jo.Type)
		}
		if !op.Pending() && op.Resp < op.Inv {
			return nil, fmt.Errorf("history: op %d responds before invocation", i)
		}
		ops = append(ops, op)
	}
	return NewHistory(in.N, ops), nil
}
