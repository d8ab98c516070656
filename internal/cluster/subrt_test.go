package cluster

import (
	"testing"

	"mpsnap/internal/mux"
	"mpsnap/internal/rt"
)

// sendLog records the destinations and messages of every Send; the rest
// of rt.Runtime is never called.
type sendLog struct {
	rt.Runtime
	dsts []int
	msgs []rt.Message
}

func (s *sendLog) Send(dst int, msg rt.Message) {
	s.dsts = append(s.dsts, dst)
	s.msgs = append(s.msgs, msg)
}

type probeMsg struct{ Seq int }

func (probeMsg) Kind() string { return "probe" }

// TestShardBroadcastBoxesOneEnvelope: a shard broadcast sends one envelope
// to each member in member order — one allocation per broadcast, not one
// per member.
func TestShardBroadcastBoxesOneEnvelope(t *testing.T) {
	under := &sendLog{}
	members := []int{4, 1, 7}
	srt := newShardRuntime(mux.New(under).Channel(ShardChannel(2)), members, 1, 1)
	var msg rt.Message = probeMsg{Seq: 1}
	srt.Broadcast(msg)
	if len(under.dsts) != len(members) {
		t.Fatalf("sent to %v, want %v", under.dsts, members)
	}
	for i, dst := range under.dsts {
		env, ok := under.msgs[i].(mux.Envelope)
		if dst != members[i] || !ok || env.Channel != ShardChannel(2) || env.Msg != msg {
			t.Fatalf("send %d went to %d carrying %#v, want member %d and the shard's envelope", i, dst, under.msgs[i], members[i])
		}
	}
	under.dsts, under.msgs = make([]int, 0, 1<<10), make([]rt.Message, 0, 1<<10)
	allocs := testing.AllocsPerRun(100, func() { srt.Broadcast(msg) })
	if allocs != 1 {
		t.Errorf("a broadcast to %d members allocates %.1f times, want 1", len(members), allocs)
	}
}
