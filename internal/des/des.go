// Package des is a minimal discrete-event simulation kernel: a simulation
// clock and a binary-heap event queue with deterministic tie-breaking.
//
// Events are typed (AtOp/AfterOp): each carries an operation code and a
// pointer-shaped argument to a Handler installed with SetHandler. The
// queue stores them by value in a reusable arena, so a hot loop that
// schedules millions of them performs no per-event allocation.
//
// Ties are broken by insertion order, so two runs that schedule the same
// events in the same order execute identically — a property the experiment
// harness depends on for reproducible figures.
package des

import (
	"fmt"
	"math"
)

// Op is a typed event payload: an operation code and its argument. Arg
// should hold a pointer-shaped value (a pointer into a caller-owned slab,
// typically) so that scheduling stays allocation-free; boxing a large
// value type into it allocates.
type Op struct {
	// Code selects the operation; its meaning is the Handler's.
	Code int
	// Arg is the operation's argument.
	Arg any
}

// Handler executes typed events scheduled with AtOp/AfterOp.
type Handler interface {
	RunOp(now float64, op Op)
}

// item is one scheduled event, stored by value in the simulator's arena.
// Slots are recycled through a free list; gen increments on every free so
// stale Handles can never cancel a slot's next tenant.
type item struct {
	at  float64
	seq uint64
	op  Op
	gen uint32
	pos int32 // index into Sim.heap, -1 when not queued
}

// entry is one heap element. The sort keys are stored by value so heap
// sifts compare and move flat 24-byte records instead of chasing item
// pointers.
type entry struct {
	at  float64
	seq uint64
	idx int32 // arena slot of the scheduled item
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is never valid. Handles are only meaningful against the Sim that
// issued them and become stale once the event fires, is cancelled, or the
// Sim is Reset.
type Handle struct {
	idx int32
	gen uint32
}

// Sim is a single-threaded discrete-event simulator. The zero value is
// ready to use and starts at time 0.
type Sim struct {
	now     float64
	seq     uint64
	popped  uint64
	handler Handler
	arena   []item
	free    []int32 // recycled arena slots
	heap    []entry
}

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// Pending returns the number of scheduled (non-cancelled) events.
func (s *Sim) Pending() int { return len(s.heap) }

// Executed returns the number of events run so far.
func (s *Sim) Executed() uint64 { return s.popped }

// NextAt returns the scheduled time of the earliest pending event. The
// second result is false when the queue is empty. Epoch-stepping drivers
// (the sharded cell simulator) use it to skip idle epochs deterministically
// instead of ticking through empty simulated time.
func (s *Sim) NextAt() (float64, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// SetHandler installs the Handler for typed events. It must be set before
// the first AtOp/AfterOp and is kept across Reset.
func (s *Sim) SetHandler(h Handler) { s.handler = h }

// Reset returns the simulator to time 0 with an empty queue, keeping its
// arena and heap capacity (and the installed Handler) for reuse. All
// outstanding Handles become stale.
func (s *Sim) Reset() {
	for _, e := range s.heap {
		s.freeSlot(e.idx)
	}
	s.heap = s.heap[:0]
	s.now = 0
	s.seq = 0
	s.popped = 0
}

// checkTime validates an absolute schedule time.
func (s *Sim) checkTime(at float64) error {
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return fmt.Errorf("des: schedule at non-finite time %v", at)
	}
	if at < s.now {
		return fmt.Errorf("des: schedule at t=%v is in the past (now=%v)", at, s.now)
	}
	return nil
}

// alloc takes an arena slot (recycling freed ones) and returns its index.
// Slot generations start at 1 and only ever grow, so the zero Handle can
// never match a live slot.
func (s *Sim) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.arena = append(s.arena, item{gen: 1})
	return int32(len(s.arena) - 1)
}

// freeSlot retires an arena slot: its generation is bumped (staling every
// Handle to it) and its references are dropped so the arena does not pin
// caller memory.
func (s *Sim) freeSlot(idx int32) {
	it := &s.arena[idx]
	it.gen++
	it.op = Op{}
	it.pos = -1
	s.free = append(s.free, idx)
}

// schedule enqueues an already-filled arena slot.
func (s *Sim) schedule(idx int32, at float64) Handle {
	it := &s.arena[idx]
	it.at = at
	it.seq = s.seq
	s.seq++
	s.heap = append(s.heap, entry{at: at, seq: it.seq, idx: idx})
	it.pos = int32(len(s.heap) - 1)
	s.siftUp(len(s.heap) - 1)
	return Handle{idx: idx, gen: it.gen}
}

// AtOp schedules a typed event at absolute time at, to be executed by the
// Handler installed with SetHandler. It performs no allocation beyond
// amortized arena growth. Scheduling in the past (before the current
// simulation time) or at a non-finite time is a driver bug and returns an
// error.
func (s *Sim) AtOp(at float64, op Op) (Handle, error) {
	if s.handler == nil {
		return Handle{}, fmt.Errorf("des: AtOp(%v) with no Handler installed", at)
	}
	if err := s.checkTime(at); err != nil {
		return Handle{}, err
	}
	idx := s.alloc()
	s.arena[idx].op = op
	return s.schedule(idx, at), nil
}

// AfterOp schedules a typed event delay time units from now.
func (s *Sim) AfterOp(delay float64, op Op) (Handle, error) {
	if delay < 0 {
		return Handle{}, fmt.Errorf("des: negative delay %v", delay)
	}
	return s.AtOp(s.now+delay, op)
}

// Cancel removes a scheduled event. Cancelling an already-executed,
// already-cancelled, or zero Handle is a no-op and returns false.
func (s *Sim) Cancel(h Handle) bool {
	if h.gen == 0 || int(h.idx) >= len(s.arena) {
		return false
	}
	it := &s.arena[h.idx]
	if it.gen != h.gen || it.pos < 0 {
		return false
	}
	s.removeAt(int(it.pos))
	s.freeSlot(h.idx)
	return true
}

// Step executes the next event, if any, and reports whether one ran.
func (s *Sim) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	e := s.heap[0]
	s.removeAt(0)
	op := s.arena[e.idx].op
	s.freeSlot(e.idx) // before running: the event may reschedule into this slot
	s.now = e.at
	s.popped++
	s.handler.RunOp(s.now, op)
	return true
}

// Run executes events until the queue drains or the event budget is
// exhausted; budget <= 0 means unbounded. It returns the number of events
// executed.
func (s *Sim) Run(budget uint64) uint64 {
	var n uint64
	for budget <= 0 || n < budget {
		if !s.Step() {
			break
		}
		n++
	}
	return n
}

// RunUntil executes events with scheduled time <= deadline, then advances
// the clock exactly to deadline. Events scheduled beyond the deadline stay
// queued. It returns the number of events executed.
func (s *Sim) RunUntil(deadline float64) uint64 {
	var n uint64
	for len(s.heap) > 0 && s.heap[0].at <= deadline {
		if !s.Step() {
			break
		}
		n++
	}
	if s.now < deadline {
		s.now = deadline
	}
	return n
}

// less orders heap entries by (time, insertion sequence) — the kernel's
// deterministic tie-break contract.
func less(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// place writes e at heap position i and records the position in its item.
func (s *Sim) place(i int, e entry) {
	s.heap[i] = e
	s.arena[e.idx].pos = int32(i)
}

func (s *Sim) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !less(e, s.heap[parent]) {
			break
		}
		s.place(i, s.heap[parent])
		i = parent
	}
	s.place(i, e)
}

func (s *Sim) siftDown(i int) {
	e := s.heap[i]
	n := len(s.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && less(s.heap[r], s.heap[child]) {
			child = r
		}
		if !less(s.heap[child], e) {
			break
		}
		s.place(i, s.heap[child])
		i = child
	}
	s.place(i, e)
}

// removeAt removes the heap entry at position i, restoring heap order.
// The arena slot itself is not freed; callers do that.
func (s *Sim) removeAt(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	s.place(i, last)
	if i > 0 && less(last, s.heap[(i-1)/2]) {
		s.siftUp(i)
	} else {
		s.siftDown(i)
	}
}
