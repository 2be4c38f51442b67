//go:build !race

package core

import (
	"testing"

	"facsp/internal/cac"
)

// TestSurfaceAdmitAllocFree pins the serving hot path: a surface-backed
// FACS-P controller decides an admission (and takes the release) without
// allocating. This is the per-request cost the bsd daemon's cells and the
// experiment sweeps pay millions of times; the exact-inference path is
// allowed to allocate (it builds Mamdani aggregates), the compiled-surface
// path is not. Gated out of -race because the detector instruments
// allocations.
func TestSurfaceAdmitAllocFree(t *testing.T) {
	cfg := DefaultPConfig().WithSurfaceCache(0) // default surface resolution
	f, err := NewFACSP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := cac.Request{ID: 1, Speed: 60, Angle: 15, Bandwidth: 5, RealTime: true}

	// Warm once: the first Admit may fault lazily-initialised state.
	d := f.Admit(req)
	if d.Accept {
		if err := f.Release(req); err != nil {
			t.Fatal(err)
		}
	}

	if n := testing.AllocsPerRun(500, func() {
		d := f.Admit(req)
		if d.Accept {
			if err := f.Release(req); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("surface-backed Admit+Release allocates %v per cycle, want 0", n)
	}
}
