package fuzzy

import (
	"math"
	"testing"
	"testing/quick"
)

// Property-based tests of the Mamdani engine invariants the rest of the
// repository leans on: membership grades stay in [0,1], defuzzified output
// stays inside the consequent universe, and degenerate inputs (NaN,
// out-of-universe crisp values) are rejected or clamped deterministically.

// quickCfg spreads generated float64 arguments over a wide range including
// far-out-of-universe values.
func quickCfg() *quick.Config { return &quick.Config{MaxCount: 500} }

func TestPropertyGradesClamped(t *testing.T) {
	e := tipperEngine(t)
	vars := append(e.Inputs(), e.Output())
	prop := func(x float64, scale uint8) bool {
		// Stretch inputs across several universes' worth of range.
		x = (x - 0.5) * float64(scale)
		for _, v := range vars {
			for _, g := range v.Fuzzify(x) {
				if math.IsNaN(g) || g < 0 || g > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropertyOutputInsideConsequentUniverse(t *testing.T) {
	e := tipperEngine(t)
	out := e.Output()
	prop := func(service, food float64, scale uint8) bool {
		service = (service - 0.5) * float64(scale)
		food = (food - 0.5) * float64(scale)
		crisp, err := e.Infer(service, food)
		if err != nil {
			return false // complete rule base: some rule always fires
		}
		return crisp >= out.Min && crisp <= out.Max
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropertyRuleStrengthsClamped(t *testing.T) {
	e := tipperEngine(t)
	prop := func(service, food float64) bool {
		res, err := e.InferDetail(service*10, food*10)
		if err != nil {
			return false
		}
		for _, s := range res.RuleStrength {
			if math.IsNaN(s) || s < 0 || s > 1 {
				return false
			}
		}
		for _, s := range res.TermStrength {
			if math.IsNaN(s) || s < 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropertyOutOfUniverseEqualsEdge(t *testing.T) {
	// Clamping is deterministic: any input beyond an edge must produce
	// exactly the edge's output.
	e := tipperEngine(t)
	atEdge, err := e.Infer(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(excess float64) bool {
		if math.IsNaN(excess) {
			return true
		}
		beyond := 10 + math.Abs(excess)
		got, err := e.Infer(beyond, beyond)
		return err == nil && got == atEdge
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
	// Infinities clamp too.
	if got, err := e.Infer(math.Inf(1), math.Inf(1)); err != nil || got != atEdge {
		t.Errorf("Infer(+Inf, +Inf) = %v, %v; want %v, nil", got, err, atEdge)
	}
}

func TestPropertyNaNRejected(t *testing.T) {
	e := tipperEngine(t)
	for _, in := range [][2]float64{
		{math.NaN(), 5},
		{5, math.NaN()},
		{math.NaN(), math.NaN()},
	} {
		if _, err := e.Infer(in[0], in[1]); err == nil {
			t.Errorf("Infer(%v, %v) accepted NaN", in[0], in[1])
		}
		if _, err := e.InferDetail(in[0], in[1]); err == nil {
			t.Errorf("InferDetail(%v, %v) accepted NaN", in[0], in[1])
		}
	}
}

func TestPropertySurfaceMatchesEngineInvariants(t *testing.T) {
	e, s := tipperSurface(t, 21)
	out := e.Output()
	prop := func(service, food float64, scale uint8) bool {
		service = (service - 0.5) * float64(scale)
		food = (food - 0.5) * float64(scale)
		crisp, err := s.Infer(service, food)
		if err != nil {
			return false
		}
		return crisp >= out.Min && crisp <= out.Max
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropertySurfaceErrorShrinksWithResolution sweeps a dense input
// lattice through a surface at resolutions 9, 17, 33 and 65, asserting the
// interpolation error against exact inference stays inside the documented
// per-resolution bound and never grows as the resolution rises — the
// property that makes a finer surface worth its memory. Bounds are
// measured maxima with ~2x headroom on the tipper's 0-30 output universe.
func TestPropertySurfaceErrorShrinksWithResolution(t *testing.T) {
	bounds := map[int]float64{9: 1.4, 17: 0.8, 33: 0.4, 65: 0.2}
	e := tipperEngine(t)
	prev := math.Inf(1)
	for _, res := range []int{9, 17, 33, 65} {
		s, err := NewSurface(e, res)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		const ticks = 160 // dense and co-prime-ish with every grid above
		for i := 0; i <= ticks; i++ {
			for j := 0; j <= ticks; j++ {
				service := 10 * float64(i) / ticks
				food := 10 * float64(j) / ticks
				want, err := e.Infer(service, food)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Infer(service, food)
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(got - want); d > worst {
					worst = d
				}
			}
		}
		if worst > bounds[res] {
			t.Errorf("resolution %d: max lattice error %v > documented bound %v", res, worst, bounds[res])
		}
		if worst > prev {
			t.Errorf("resolution %d: error %v grew over the coarser resolution's %v", res, worst, prev)
		}
		prev = worst
		t.Logf("resolution %2d: max lattice error %.4f (bound %v)", res, worst, bounds[res])
	}
}

func TestCentroidFastPathMatchesGeneralPath(t *testing.T) {
	// The table-backed centroid must be bit-identical to Centroid.Defuzz.
	e := tipperEngine(t)
	if e.support == nil {
		t.Fatal("default engine did not build the centroid grade table")
	}
	prop := func(service, food float64) bool {
		res, err := e.InferDetail(service*10, food*10)
		if err != nil {
			return false
		}
		want, err := Centroid{}.Defuzz(e.output, res.TermStrength, e.samples)
		if err != nil {
			return false
		}
		return res.Crisp == want
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestCentroidFastPathUnorderedSupports(t *testing.T) {
	// Output terms listed out of position order, with a gap between some
	// supports, up to three supports overlapping, and one term so narrow
	// that it falls between integration samples: the fast path must still
	// sum in sample order and match Centroid.Defuzz bitwise.
	service := MustVariable("service", 0, 10,
		Term{Name: "poor", MF: Tri(0, 0, 5)},
		Term{Name: "good", MF: Tri(5, 5, 5)},
		Term{Name: "great", MF: Tri(10, 5, 0)},
	)
	food := MustVariable("food", 0, 10,
		Term{Name: "bad", MF: Tri(0, 0, 10)},
		Term{Name: "tasty", MF: Tri(10, 10, 0)},
	)
	tip := MustVariable("tip", 0, 30,
		Term{Name: "high", MF: Tri(26, 3, 3)},
		Term{Name: "low", MF: Tri(4, 3, 3)},
		Term{Name: "wide", MF: Trap(12, 18, 8, 8)},
		Term{Name: "sliver", MF: Tri(15.0001, 1e-6, 1e-6)},
		Term{Name: "mid", MF: Tri(6, 4, 4)},
	)
	// The sliver fires only alongside other rules: a clamped corner input
	// that activates it alone would leave no area on either path.
	rules, err := RuleTable([]Variable{service, food}, tip, []string{
		"low", "wide",
		"sliver", "mid",
		"high", "high",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, samples := range []int{16, 101, 2500} {
		e, err := NewEngine("unordered", []Variable{service, food}, tip, rules, WithSamples(samples))
		if err != nil {
			t.Fatal(err)
		}
		// A dense grid rather than testing/quick: quick's float64s are
		// mostly far outside the universe and clamp to single-rule corners.
		mismatches := 0
		for i := 0; i <= 120; i++ {
			for j := 0; j <= 24; j++ {
				x, y := -0.987+float64(i)*0.1, -1+float64(j)*0.5 // x never lands on the sliver-only point service=5
				res, err := e.InferDetail(x, y)
				if err != nil {
					t.Fatalf("samples %d at (%v, %v): %v", samples, x, y, err)
				}
				want, err := Centroid{}.Defuzz(e.output, res.TermStrength, e.samples)
				crisp, best, err2 := e.InferBest(x, y)
				if err != nil || err2 != nil || math.Float64bits(res.Crisp) != math.Float64bits(want) ||
					math.Float64bits(crisp) != math.Float64bits(want) || best != res.BestTerm {
					mismatches++
				}
			}
		}
		if mismatches > 0 {
			t.Errorf("samples %d: %d grid points differ from Centroid.Defuzz", samples, mismatches)
		}
	}
}
