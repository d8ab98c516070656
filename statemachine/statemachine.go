// Package statemachine implements the update-query state machine of
// Faleiro et al. (reference [23]), another of the paper's motivating
// applications. Updates are commutative commands appended to the calling
// node's segment (its command log) of the snapshot object (obj is an
// mpsnap.Object); queries fold a SCAN of all logs in a deterministic
// order. Because commands commute, any linearization of the per-node logs
// yields the same state, so an atomic snapshot suffices — no consensus
// required.
package statemachine

import "mpsnap/internal/segment"

// Command is one applied command with its origin.
type Command struct {
	Node int
	Seq  int
	Op   []byte
}

// Machine is one node's handle on the replicated update-query machine.
type Machine struct {
	seg *segment.Own[[][]byte] // this node's commands, in program order
}

// New binds node id's machine to its snapshot object.
func New(obj segment.Object, id int) *Machine {
	return &Machine{segment.NewOwn(obj, id, "statemachine", segment.List(segment.Bytes, 1))}
}

// Apply appends a (commutative) command to this node's log (one UPDATE).
func (m *Machine) Apply(op []byte) error {
	return m.seg.Put(append(m.seg.Last(), append([]byte(nil), op...)))
}

// Query scans all logs and returns every command in a deterministic
// order: by (node, per-node sequence). Callers fold the commands into
// their state; since commands commute, the fold is well-defined.
func (m *Machine) Query() ([]Command, error) {
	logs, err := m.seg.Scan()
	if err != nil {
		return nil, err
	}
	var out []Command
	for node, log := range logs {
		if log == nil {
			continue
		}
		for s, op := range *log {
			out = append(out, Command{Node: node, Seq: s + 1, Op: op})
		}
	}
	return out, nil
}

// Fold queries and folds the commands with the caller's reducer.
func (m *Machine) Fold(init any, step func(state any, cmd Command) any) (any, error) {
	cmds, err := m.Query()
	if err != nil {
		return nil, err
	}
	state := init
	for _, c := range cmds {
		state = step(state, c)
	}
	return state, nil
}
