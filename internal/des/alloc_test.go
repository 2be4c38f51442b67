//go:build !race

package des

import "testing"

// TestEventLoopAllocFree pins the des kernel's hot-path contract: once the
// arena and heap are warm, a schedule→run cycle of typed events performs
// zero allocations per event. The simulation core (cellsim) and the perf
// harness depend on this staying true. Gated out of -race because the
// detector instruments allocations.
func TestEventLoopAllocFree(t *testing.T) {
	var sim Sim
	h := &chainHandler{sim: &sim}
	sim.SetHandler(h)

	const events = 512
	warm := func() {
		sim.Reset()
		h.left = events
		if _, err := sim.AtOp(0, Op{Code: 1, Arg: &h.arg}); err != nil {
			t.Fatal(err)
		}
		if n := sim.Run(0); n != events+1 {
			t.Fatalf("ran %d events, want %d", n, events+1)
		}
	}
	warm() // grow arena, heap and free list once

	if n := testing.AllocsPerRun(10, warm); n != 0 {
		t.Errorf("warm event loop allocates %v per cycle (%v per event), want 0",
			n, n/float64(events))
	}
}

// TestScheduleCancelAllocFree checks the cancel path recycles slots
// without allocating either.
func TestScheduleCancelAllocFree(t *testing.T) {
	var sim Sim
	h := &chainHandler{sim: &sim}
	sim.SetHandler(h)
	// Warm one slot.
	hd, err := sim.AtOp(1, Op{Code: 1, Arg: &h.arg})
	if err != nil {
		t.Fatal(err)
	}
	sim.Cancel(hd)

	if n := testing.AllocsPerRun(1000, func() {
		hd, err := sim.AtOp(1, Op{Code: 1, Arg: &h.arg})
		if err != nil {
			t.Fatal(err)
		}
		sim.Cancel(hd)
	}); n != 0 {
		t.Errorf("schedule+cancel allocates %v per op, want 0", n)
	}
}
