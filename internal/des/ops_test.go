package des

// Tests for the typed-event path and the arena recycling underneath it:
// cancelled events must never fire after their slot is reused, handles
// must stay valid (and only cancel their own event) across recycling, and
// the (time, seq) tie-break contract must survive any mix of schedules and
// cancellations.

import (
	"sort"
	"testing"
	"testing/quick"

	"facsp/internal/rng"
)

// recorder is a Handler that appends (now, op) pairs.
type recorder struct {
	times []float64
	codes []int
	args  []any
}

func (r *recorder) RunOp(now float64, op Op) {
	r.times = append(r.times, now)
	r.codes = append(r.codes, op.Code)
	r.args = append(r.args, op.Arg)
}

// chainHandler reschedules itself n times: the classic event-loop shape
// (every executed event arms the next), driving schedule + pop + dispatch
// through the arena and free list.
type chainHandler struct {
	sim  *Sim
	left int
	arg  int // pointer target so Op.Arg stays pointer-shaped
}

func (h *chainHandler) RunOp(now float64, op Op) {
	if h.left == 0 {
		return
	}
	h.left--
	if _, err := h.sim.AfterOp(1, Op{Code: op.Code, Arg: &h.arg}); err != nil {
		panic(err)
	}
}

func TestTypedOpsRunInOrder(t *testing.T) {
	var s Sim
	rec := &recorder{}
	s.SetHandler(rec)
	payload := new(int)
	for i, at := range []float64{5, 1, 3} {
		if _, err := s.AtOp(at, Op{Code: i, Arg: payload}); err != nil {
			t.Fatalf("AtOp(%v): %v", at, err)
		}
	}
	s.Run(0)
	wantTimes := []float64{1, 3, 5}
	wantCodes := []int{1, 2, 0}
	for i := range wantTimes {
		if rec.times[i] != wantTimes[i] || rec.codes[i] != wantCodes[i] {
			t.Fatalf("op %d ran (t=%v, code=%d), want (t=%v, code=%d)",
				i, rec.times[i], rec.codes[i], wantTimes[i], wantCodes[i])
		}
		if rec.args[i] != payload {
			t.Fatalf("op %d arg = %v, want the scheduled pointer", i, rec.args[i])
		}
	}
}

func TestAtOpRequiresHandler(t *testing.T) {
	var s Sim
	if _, err := s.AtOp(1, Op{}); err == nil {
		t.Fatal("AtOp without a Handler accepted")
	}
}

func TestAfterOpNegativeDelay(t *testing.T) {
	var s Sim
	s.SetHandler(&recorder{})
	if _, err := s.AfterOp(-1, Op{}); err == nil {
		t.Fatal("negative delay accepted")
	}
}

// TestCancelledEventNeverFiresAfterReuse pins the free-list safety
// property: cancelling an event frees its arena slot; a new event that
// recycles the slot must fire exactly once, and neither the cancelled
// event nor a second Cancel through the stale handle may affect it.
func TestCancelledEventNeverFiresAfterReuse(t *testing.T) {
	s, rec := newRecorded()
	h, err := s.AtOp(1, Op{Code: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(h) {
		t.Fatal("Cancel of a live event returned false")
	}
	// This schedule recycles the freed slot (single-slot arena).
	if _, err := s.AtOp(2, Op{Code: 2}); err != nil {
		t.Fatal(err)
	}
	if s.Cancel(h) {
		t.Error("stale handle cancelled the slot's new tenant")
	}
	s.Run(0)
	if len(rec.codes) != 1 || rec.codes[0] != 2 {
		t.Errorf("ran ops %v, want only the recycled-slot event [2] once", rec.codes)
	}
}

// TestHandlesValidAcrossRecycling schedules, fires and cancels enough
// events to cycle every arena slot several times, checking that each
// handle cancels exactly its own event.
func TestHandlesValidAcrossRecycling(t *testing.T) {
	s, rec := newRecorded()
	next := 0.0
	schedule := func(id int) Handle {
		next++
		h, err := s.AtOp(next, Op{Code: id})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	fired := map[int]bool{}
	for round := 0; round < 10; round++ {
		base := round * 4
		keep := schedule(base)
		drop := schedule(base + 1)
		if !s.Cancel(drop) {
			t.Fatalf("round %d: Cancel(drop) = false", round)
		}
		s.Run(0) // fires keep; both slots recycle
		late := schedule(base + 2)
		if s.Cancel(drop) || s.Cancel(keep) {
			t.Fatalf("round %d: stale handle cancelled a live event", round)
		}
		s.Run(0)
		for _, code := range rec.codes {
			fired[code] = true
		}
		if !fired[base] || fired[base+1] || !fired[base+2] {
			t.Fatalf("round %d: fired = %v", round, fired)
		}
		if s.Cancel(late) {
			t.Fatalf("round %d: Cancel of an executed event returned true", round)
		}
	}
}

func TestResetRecyclesArena(t *testing.T) {
	s, rec := newRecorded()
	if _, err := s.AtOp(1, Op{Code: 1}); err != nil {
		t.Fatal(err)
	}
	h, err := s.AtOp(5, Op{Code: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1) // fires the t=1 event; the t=5 event stays queued
	s.Reset()
	if got := s.Now(); got != 0 {
		t.Errorf("Now after Reset = %v, want 0", got)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending after Reset = %d, want 0", got)
	}
	if s.Cancel(h) {
		t.Error("handle from before Reset cancelled something")
	}
	// The handler survives Reset and the recycled arena behaves.
	if _, err := s.AtOp(1, Op{Code: 7}); err != nil {
		t.Fatal(err)
	}
	if got := s.Run(0); got != 1 {
		t.Errorf("Run after Reset executed %d events, want 1", got)
	}
	if len(rec.codes) != 2 || rec.codes[0] != 1 || rec.codes[1] != 7 {
		t.Errorf("ops = %v, want [1 7]: the pre-Reset t=5 event must never run", rec.codes)
	}
}

// TestQuickTieBreakSurvivesCancellation is the property test for the
// queue: under a random mix of schedules and cancellations, the surviving
// events run exactly in (time, insertion-seq) order — the same order a
// sort of the surviving schedule gives.
func TestQuickTieBreakSurvivesCancellation(t *testing.T) {
	type sched struct {
		at  float64
		seq int // global insertion order
	}
	f := func(seed uint64, n uint8) bool {
		src := rng.New(seed)
		s, rec := newRecorded()

		total := int(n%80) + 2
		var want []sched
		var handles []Handle
		var events []sched
		for i := 0; i < total; i++ {
			// Coarse times force frequent ties; the tie-break must hold.
			at := float64(src.Intn(8))
			ev := sched{at: at, seq: i}
			h, err := s.AtOp(at, Op{Code: i})
			if err != nil {
				return false
			}
			handles = append(handles, h)
			events = append(events, ev)
			// Cancel a random earlier event about a third of the time.
			if src.Bool(1.0 / 3) {
				j := src.Intn(len(handles))
				s.Cancel(handles[j]) // false on double-cancel is fine
				events[j].seq = -1   // mark cancelled
			}
		}
		for _, ev := range events {
			if ev.seq >= 0 {
				want = append(want, ev)
			}
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		s.Run(0)
		if len(rec.codes) != len(want) {
			return false
		}
		for i := range want {
			if (sched{at: rec.times[i], seq: rec.codes[i]}) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAtOp measures the allocation-free typed-event path: schedule
// and drain a queue of 128 typed events per iteration. Allocs/op must stay
// at zero once the arena is warm.
func BenchmarkAtOp(b *testing.B) {
	src := rng.New(1)
	var s Sim
	rec := &recorder{}
	s.SetHandler(rec)
	arg := new(int)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		rec.times = rec.times[:0]
		rec.codes = rec.codes[:0]
		rec.args = rec.args[:0]
		for j := 0; j < 128; j++ {
			if _, err := s.AtOp(src.Float64()*1000, Op{Code: j, Arg: arg}); err != nil {
				b.Fatal(err)
			}
		}
		s.Run(0)
	}
}
