//go:build !race

package core

import (
	"testing"

	"facsp/internal/cac"
)

// The admission hot paths decide a request (and take its release) without
// allocating: this is the per-request cost the bsd daemon's cells and the
// experiment sweeps pay millions of times. Both the compiled-surface path
// and exact Mamdani inference (fuzzification and the centroid aggregate on
// the stack) are gated. Gated out of -race because the detector instruments
// allocations.

func TestSurfaceAdmitAllocFree(t *testing.T) {
	f, err := NewFACSP(DefaultPConfig().WithSurfaceCache(0)) // default surface resolution
	if err != nil {
		t.Fatal(err)
	}
	assertAdmitAllocFree(t, "surface-backed FACS-P", f)
}

func TestExactFACSPAdmitAllocFree(t *testing.T) {
	f, err := NewFACSP(DefaultPConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertAdmitAllocFree(t, "exact FACS-P", f)
}

func TestExactFACSAdmitAllocFree(t *testing.T) {
	f, err := NewFACS(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertAdmitAllocFree(t, "exact FACS", f)
}

func TestEngineInferAllocFree(t *testing.T) {
	flc1, flc2, err := flcPair(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		cv, err := flc1.Infer(72.5, 33, 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := flc2.Infer(cv, 5, 22); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FLC1+FLC2 Infer allocates %v per call pair, want 0", n)
	}
}

func assertAdmitAllocFree(t *testing.T, name string, ctrl cac.Controller) {
	t.Helper()
	req := cac.Request{ID: 1, Speed: 60, Angle: 15, Bandwidth: 5, RealTime: true}
	cycle := func() {
		if d := ctrl.Admit(req); d.Accept {
			if err := ctrl.Release(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // warm once: the first Admit may fault lazily-initialised state
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Errorf("%s Admit+Release allocates %v per cycle, want 0", name, n)
	}
}
