package detect_test

import (
	"testing"

	"mpsnap"
	"mpsnap/detect"
)

// TestRejectedPublishKeepsLocalStatus: a mutation that makes a counter
// negative is refused, and neither Local nor the node's own entry of a
// Snapshot shows the refused status.
func TestRejectedPublishKeepsLocalStatus(t *testing.T) {
	c, err := mpsnap.NewSimCluster(mpsnap.Config{N: 3, F: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.Client(0, func(cl *mpsnap.Client) {
		m := detect.New(cl.Raw(), 0)
		want := detect.Status{Active: true}
		if err := m.Publish(func(s *detect.Status) { s.Active = true }); err != nil {
			t.Errorf("publish: %v", err)
			return
		}
		if err := m.Publish(func(s *detect.Status) { s.Sent-- }); err == nil {
			t.Error("negative counter must be rejected")
		}
		if got := m.Local(); got != want {
			t.Errorf("Local after rejected publish = %+v, want %+v", got, want)
		}
		sts, err := m.Snapshot()
		if err != nil {
			t.Errorf("snapshot: %v", err)
			return
		}
		if sts[0] != want {
			t.Errorf("own entry after rejected publish = %+v, want %+v", sts[0], want)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}
