package rt

import "testing"

type msg struct{}

func (msg) Kind() string { return "m" }

func TestHandlerFunc(t *testing.T) {
	var gotSrc int
	var gotMsg Message
	h := HandlerFunc(func(src int, m Message) { gotSrc, gotMsg = src, m })
	h.HandleMessage(7, msg{})
	if gotSrc != 7 || gotMsg == nil {
		t.Fatalf("handler func: src=%d msg=%v", gotSrc, gotMsg)
	}
}

func TestDUnits(t *testing.T) {
	if got := (2 * TicksPerD).DUnits(); got != 2.0 {
		t.Fatalf("2D = %f", got)
	}
	if got := (TicksPerD / 2).DUnits(); got != 0.5 {
		t.Fatalf("0.5D = %f", got)
	}
	if got := Ticks(0).DUnits(); got != 0 {
		t.Fatalf("0D = %f", got)
	}
}

// fakeRuntime exercises the WaitUntil helper.
type fakeRuntime struct {
	ranThen bool
}

func (f *fakeRuntime) ID() int                 { return 0 }
func (f *fakeRuntime) N() int                  { return 1 }
func (f *fakeRuntime) F() int                  { return 0 }
func (f *fakeRuntime) Send(dst int, m Message) {}
func (f *fakeRuntime) Broadcast(m Message)     {}
func (f *fakeRuntime) Atomic(fn func())        { fn() }
func (f *fakeRuntime) Now() Ticks              { return 0 }
func (f *fakeRuntime) Crashed() bool           { return false }
func (f *fakeRuntime) WaitUntilThen(label string, pred func() bool, then func()) error {
	for !pred() {
	}
	then()
	f.ranThen = true
	return nil
}

func TestWaitUntilHelper(t *testing.T) {
	f := &fakeRuntime{}
	if err := WaitUntil(f, "x", func() bool { return true }); err != nil {
		t.Fatal(err)
	}
	if !f.ranThen {
		t.Fatal("WaitUntil must call WaitUntilThen")
	}
}

func TestErrCrashed(t *testing.T) {
	if ErrCrashed.Error() == "" {
		t.Fatal("ErrCrashed must have a message")
	}
}

// tickRuntime is fakeRuntime with a clock that advances on every read.
type tickRuntime struct {
	fakeRuntime
	now Ticks
}

func (r *tickRuntime) ID() int    { return 3 }
func (r *tickRuntime) Now() Ticks { r.now += 10; return r.now }

type opRecorder struct{ ops []OpEvent }

func (o *opRecorder) OnOp(e OpEvent) { o.ops = append(o.ops, e) }
func (o *opRecorder) OnMsg(MsgEvent) {}

func TestOpTrace(t *testing.T) {
	r := &tickRuntime{}
	tr := NewOpTrace(r)

	// No observer: nothing is emitted, the clock is not read, but the op
	// still takes its sequence number.
	tr.Start("update")
	tr.Phase("p")
	tr.End(nil)
	if r.now != 0 {
		t.Fatalf("clock read %d ticks' worth without an observer", r.now)
	}

	rec := &opRecorder{}
	tr.SetObserver(rec)
	tr.Phase("outside") // no op in flight: dropped
	tr.Start("scan")
	tr.Phase("collect")
	tr.End(ErrCrashed)
	tr.Phase("outside")
	tr.End(nil) // no op in flight: dropped
	want := []OpEvent{
		{T: 10, Node: 3, ID: 2, Op: "scan", Phase: PhaseStart},
		{T: 20, Node: 3, ID: 2, Op: "scan", Phase: "collect"},
		{T: 30, Node: 3, ID: 2, Op: "scan", Phase: PhaseEnd, Dur: 20, Err: true},
	}
	if len(rec.ops) != len(want) {
		t.Fatalf("events = %+v, want %+v", rec.ops, want)
	}
	for i := range want {
		if rec.ops[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, rec.ops[i], want[i])
		}
	}

	rec.ops = make([]OpEvent, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		rec.ops = rec.ops[:0]
		tr.Start("update")
		tr.Phase("p")
		tr.End(nil)
	}); n != 0 {
		t.Errorf("an op's three events allocate %v times, want 0", n)
	}
}
