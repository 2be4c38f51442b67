package des

import (
	"math"
	"testing"
	"testing/quick"

	"facsp/internal/rng"
)

// newRecorded returns a Sim whose Handler records every op it runs.
func newRecorded() (*Sim, *recorder) {
	s := &Sim{}
	rec := &recorder{}
	s.SetHandler(rec)
	return s, rec
}

func TestZeroValueUsable(t *testing.T) {
	var s Sim
	if got := s.Now(); got != 0 {
		t.Errorf("Now = %v, want 0", got)
	}
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
	if got := s.Run(0); got != 0 {
		t.Errorf("Run on empty queue executed %d events", got)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	s, rec := newRecorded()
	for _, at := range []float64{5, 1, 3, 2, 4} {
		if _, err := s.AtOp(at, Op{}); err != nil {
			t.Fatalf("AtOp(%v): %v", at, err)
		}
	}
	s.Run(0)
	want := []float64{1, 2, 3, 4, 5}
	if len(rec.times) != len(want) {
		t.Fatalf("executed %d events, want %d", len(rec.times), len(want))
	}
	for i := range want {
		if rec.times[i] != want[i] {
			t.Errorf("event %d ran at %v, want %v", i, rec.times[i], want[i])
		}
	}
}

func TestTiesBreakByInsertionOrder(t *testing.T) {
	s, rec := newRecorded()
	for i := 0; i < 10; i++ {
		if _, err := s.AtOp(7, Op{Code: i}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(0)
	for i, got := range rec.codes {
		if got != i {
			t.Fatalf("tie order = %v, want insertion order", rec.codes)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s, rec := newRecorded()
	if _, err := s.AtOp(2.5, Op{}); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	if len(rec.times) != 1 || rec.times[0] != 2.5 {
		t.Errorf("handler saw now=%v, want [2.5]", rec.times)
	}
	if got := s.Now(); got != 2.5 {
		t.Errorf("Now after run = %v, want 2.5", got)
	}
}

// afterHandler records every op and answers op code 0 by scheduling op
// code 1 five time units later.
type afterHandler struct {
	recorder
	sim *Sim
	err error
}

func (h *afterHandler) RunOp(now float64, op Op) {
	h.recorder.RunOp(now, op)
	if op.Code == 0 {
		_, h.err = h.sim.AfterOp(5, Op{Code: 1})
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var s Sim
	h := &afterHandler{sim: &s}
	s.SetHandler(h)
	if _, err := s.AtOp(10, Op{Code: 0}); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	if h.err != nil {
		t.Fatalf("AfterOp: %v", h.err)
	}
	if len(h.times) != 2 || h.times[1] != 15 || h.codes[1] != 1 {
		t.Errorf("ran (times %v, codes %v), want the AfterOp event at 15", h.times, h.codes)
	}
}

func TestScheduleErrors(t *testing.T) {
	s, _ := newRecorded()
	if _, err := s.AtOp(math.NaN(), Op{}); err == nil {
		t.Error("NaN time accepted")
	}
	if _, err := s.AtOp(math.Inf(1), Op{}); err == nil {
		t.Error("Inf time accepted")
	}
	if _, err := s.AfterOp(-1, Op{}); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := s.AtOp(5, Op{}); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	if _, err := s.AtOp(4, Op{}); err == nil {
		t.Error("scheduling in the past accepted")
	}
}

func TestCancel(t *testing.T) {
	s, rec := newRecorded()
	h, err := s.AtOp(1, Op{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(h) {
		t.Error("Cancel returned false for a live event")
	}
	if s.Cancel(h) {
		t.Error("double Cancel returned true")
	}
	s.Run(0)
	if len(rec.times) != 0 {
		t.Error("cancelled event ran")
	}
	if s.Cancel(Handle{}) {
		t.Error("Cancel of zero Handle returned true")
	}
}

func TestCancelAfterExecution(t *testing.T) {
	s, _ := newRecorded()
	h, err := s.AtOp(1, Op{})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	if s.Cancel(h) {
		t.Error("Cancel of executed event returned true")
	}
}

func TestPendingAndExecuted(t *testing.T) {
	s, _ := newRecorded()
	h1, _ := s.AtOp(1, Op{})
	s.AtOp(2, Op{})
	s.AtOp(3, Op{})
	if got := s.Pending(); got != 3 {
		t.Errorf("Pending = %d, want 3", got)
	}
	s.Cancel(h1)
	if got := s.Pending(); got != 2 {
		t.Errorf("Pending after cancel = %d, want 2", got)
	}
	s.Run(0)
	if got := s.Executed(); got != 2 {
		t.Errorf("Executed = %d, want 2", got)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending after run = %d, want 0", got)
	}
}

func TestRunBudget(t *testing.T) {
	s, rec := newRecorded()
	for i := 1; i <= 10; i++ {
		s.AtOp(float64(i), Op{})
	}
	if got := s.Run(4); got != 4 {
		t.Errorf("Run(4) executed %d", got)
	}
	if len(rec.times) != 4 {
		t.Errorf("count = %d, want 4", len(rec.times))
	}
	if got := s.Run(0); got != 6 {
		t.Errorf("Run(0) executed %d, want remaining 6", got)
	}
}

func TestRunUntil(t *testing.T) {
	s, _ := newRecorded()
	for _, at := range []float64{1, 2, 3, 4, 5} {
		s.AtOp(at, Op{})
	}
	if got := s.RunUntil(3); got != 3 {
		t.Errorf("RunUntil(3) executed %d, want 3", got)
	}
	if got := s.Now(); got != 3 {
		t.Errorf("Now = %v, want 3", got)
	}
	if got := s.Pending(); got != 2 {
		t.Errorf("Pending = %d, want 2", got)
	}
	// Deadline with no events must still advance the clock.
	if got := s.RunUntil(3.5); got != 0 {
		t.Errorf("RunUntil(3.5) executed %d, want 0", got)
	}
	if got := s.Now(); got != 3.5 {
		t.Errorf("Now = %v, want 3.5", got)
	}
}

func TestRunUntilSkipsCancelledHead(t *testing.T) {
	s, _ := newRecorded()
	h, _ := s.AtOp(1, Op{})
	s.AtOp(2, Op{})
	s.Cancel(h)
	if got := s.RunUntil(1.5); got != 0 {
		t.Errorf("RunUntil(1.5) executed %d, want 0", got)
	}
	if got := s.RunUntil(2.5); got != 1 {
		t.Errorf("RunUntil(2.5) executed %d, want 1", got)
	}
}

func TestSelfSchedulingChain(t *testing.T) {
	var s Sim
	h := &chainHandler{sim: &s, left: 99}
	s.SetHandler(h)
	if _, err := s.AtOp(0, Op{Arg: &h.arg}); err != nil {
		t.Fatal(err)
	}
	if hops := s.Run(0); hops != 100 {
		t.Errorf("hops = %d, want 100", hops)
	}
	if got := s.Now(); got != 99 {
		t.Errorf("Now = %v, want 99", got)
	}
}

// Property: random schedules always execute in non-decreasing time order
// and execute every non-cancelled event exactly once.
func TestQuickRandomSchedulesOrdered(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		src := rng.New(seed)
		s, rec := newRecorded()
		total := int(n%64) + 1
		for i := 0; i < total; i++ {
			if _, err := s.AtOp(src.Float64()*100, Op{}); err != nil {
				return false
			}
		}
		executed := s.Run(0)
		for i := 1; i < len(rec.times); i++ {
			if rec.times[i] < rec.times[i-1] {
				return false
			}
		}
		return executed == uint64(total) && len(rec.times) == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
