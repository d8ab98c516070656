package mpsnap_test

import (
	"fmt"
	"strings"
	"testing"

	"mpsnap"
	"mpsnap/crdt"
	"mpsnap/detect"
)

// TestMultiObjectCluster runs a CRDT counter and a termination detector as
// extra objects next to the primary snapshot — all over one cluster.
func TestMultiObjectCluster(t *testing.T) {
	const n = 4
	c, err := mpsnap.NewSimCluster(mpsnap.Config{
		N: n, F: 1, Seed: 8,
		Extra: []mpsnap.ExtraObject{
			{Name: "counter"},
			{Name: "monitor", Algorithm: mpsnap.EQASO},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		i := i
		c.Client(i, func(cl *mpsnap.Client) {
			if cl.Extra("nope") != nil {
				t.Error("unknown extra should be nil")
			}
			ctr := crdt.NewGCounter(cl.Extra("counter"))
			mon := detect.New(cl.Extra("monitor"), i)
			// Primary object traffic (recorded + checked).
			if err := cl.Update([]byte(fmt.Sprintf("p%d", i))); err != nil {
				return
			}
			// Counter traffic on its own object.
			if err := ctr.Add(uint64(i + 1)); err != nil {
				t.Errorf("counter: %v", err)
				return
			}
			// Monitor traffic on its own object.
			if err := mon.Publish(func(s *detect.Status) { s.Active = false }); err != nil {
				t.Errorf("monitor: %v", err)
				return
			}
			_ = cl.Sleep(30 * mpsnap.D)
			v, err := ctr.Value()
			if err != nil || v != 1+2+3+4 {
				t.Errorf("counter = %d, %v; want 10", v, err)
			}
			done, err := mon.CheckTermination()
			if err != nil || !done {
				t.Errorf("termination = %v, %v", done, err)
			}
			snap, err := cl.Scan()
			if err != nil {
				t.Errorf("primary scan: %v", err)
				return
			}
			if string(snap[i]) != fmt.Sprintf("p%d", i) {
				t.Errorf("primary segment corrupted: %q (cross-object leak?)", snap[i])
			}
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err) // only the primary object's history is checked
	}
}

func TestExtraObjectValidation(t *testing.T) {
	if _, err := mpsnap.NewSimCluster(mpsnap.Config{N: 3, F: 1, Extra: []mpsnap.ExtraObject{{}}}); err == nil {
		t.Fatal("nameless extra must be rejected")
	}
	if _, err := mpsnap.NewSimCluster(mpsnap.Config{N: 5, F: 2,
		Extra: []mpsnap.ExtraObject{{Name: "b", Algorithm: mpsnap.ByzASO}}}); err == nil {
		t.Fatal("byzantine extra with n <= 3f must be rejected")
	}
	if _, err := mpsnap.NewSimCluster(mpsnap.Config{N: 3, F: 1,
		Extra: []mpsnap.ExtraObject{{Name: "b", Algorithm: "bogus"}}}); err == nil {
		t.Fatal("unknown extra algorithm must be rejected")
	}
	if _, err := mpsnap.NewSimCluster(mpsnap.Config{N: 3, F: 1,
		Extra: []mpsnap.ExtraObject{{Name: "b"}, {Name: "b"}}}); err == nil || !strings.Contains(err.Error(), "bound twice") {
		t.Fatalf("duplicate extra name must be rejected, got %v", err)
	}
}
