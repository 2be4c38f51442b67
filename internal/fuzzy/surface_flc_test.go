package fuzzy_test

import (
	"fmt"
	"testing"

	"facsp/internal/core"
	"facsp/internal/fuzzy"
)

var flcBuilders = []struct {
	name  string
	build func(...fuzzy.Option) (*fuzzy.Engine, error)
}{
	{"FLC1", core.NewFLC1},
	{"FLC2", core.NewFLC2},
}

// TestSurfaceMatchesReferenceFLC pins the compiled surfaces of the
// paper's controllers bitwise to one Engine.Infer per grid point, across
// both AND operators, the centroid fast path and the general defuzzifier
// path, from the coarsest grid to the default resolution (twice the
// default in surface_flc_norace_test.go).
func TestSurfaceMatchesReferenceFLC(t *testing.T) {
	checkFLCSurfaces(t, 2, 5, 9, 17, 33)
}

func checkFLCSurfaces(t *testing.T, resolutions ...int) {
	ands := []struct {
		name string
		and  fuzzy.TNorm
	}{{"min", fuzzy.MinAND}, {"product", fuzzy.ProductAND}}
	defuzz := []fuzzy.Defuzzifier{fuzzy.Centroid{}, fuzzy.Height{}}
	for _, b := range flcBuilders {
		for _, a := range ands {
			for _, d := range defuzz {
				t.Run(fmt.Sprintf("%s/%s/%T", b.name, a.name, d), func(t *testing.T) {
					e, err := b.build(fuzzy.WithAND(a.and), fuzzy.WithDefuzzifier(d))
					if err != nil {
						t.Fatal(err)
					}
					for _, res := range resolutions {
						fuzzy.CheckSurfaceMatchesReference(t, e, res)
					}
				})
			}
		}
	}
}

// TestSurfaceDefuzzCount pins how many term-strength vectors a default
// compile of each controller defuzzifies at resolution 33: the distinct
// vectors among its 35,937 grid points. A memo that stopped hitting would
// raise these to the point count.
func TestSurfaceDefuzzCount(t *testing.T) {
	want := map[string]int{"FLC1": 7280, "FLC2": 4041}
	for _, b := range flcBuilders {
		e, err := b.build()
		if err != nil {
			t.Fatal(err)
		}
		n, err := fuzzy.SurfaceDefuzzCount(e, fuzzy.DefaultSurfaceResolution)
		if err != nil {
			t.Fatal(err)
		}
		if n != want[b.name] {
			t.Errorf("%s: %d defuzzifications at resolution %d, want %d",
				b.name, n, fuzzy.DefaultSurfaceResolution, want[b.name])
		}
	}
}
