package fuzzy

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func tipperSurface(t testing.TB, resolution int) (*Engine, *Surface) {
	t.Helper()
	e := tipperEngine(t)
	s, err := NewSurface(e, resolution)
	if err != nil {
		t.Fatalf("NewSurface: %v", err)
	}
	return e, s
}

func TestSurfaceExactOnGridPoints(t *testing.T) {
	e, s := tipperSurface(t, 11)
	// Every grid tick is a precomputed point: interpolation must return the
	// engine's value exactly there, including on the inserted breakpoints.
	// Resolution 11 over [0,10] puts uniform ticks on the integers, and the
	// tipper breakpoints (0, 5, 10) coincide with them.
	for _, service := range []float64{0, 1, 2, 5, 7, 10} {
		for _, food := range []float64{0, 2, 5, 10} {
			want, err := e.Infer(service, food)
			if err != nil {
				t.Fatalf("engine at (%v, %v): %v", service, food, err)
			}
			got, err := s.Infer(service, food)
			if err != nil {
				t.Fatalf("surface at (%v, %v): %v", service, food, err)
			}
			if got != want {
				t.Errorf("surface at grid point (%v, %v) = %v, engine = %v", service, food, got, want)
			}
		}
	}
}

func TestSurfaceInterpolatesWithinUniverse(t *testing.T) {
	_, s := tipperSurface(t, 11)
	out := s.Output()
	for service := 0.0; service <= 10; service += 0.173 {
		for food := 0.0; food <= 10; food += 0.211 {
			got, err := s.Infer(service, food)
			if err != nil {
				t.Fatalf("surface at (%v, %v): %v", service, food, err)
			}
			if got < out.Min || got > out.Max {
				t.Fatalf("surface at (%v, %v) = %v outside output universe [%v, %v]",
					service, food, got, out.Min, out.Max)
			}
		}
	}
}

func TestSurfaceClampsLikeEngine(t *testing.T) {
	e, s := tipperSurface(t, 11)
	// Out-of-universe inputs clamp to the edge, matching Engine semantics.
	cases := [][2]float64{{-5, 5}, {15, 5}, {5, -1}, {5, 11}, {1e6, -1e6}}
	for _, c := range cases {
		want, err := e.Infer(c[0], c[1])
		if err != nil {
			t.Fatalf("engine at %v: %v", c, err)
		}
		got, err := s.Infer(c[0], c[1])
		if err != nil {
			t.Fatalf("surface at %v: %v", c, err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("surface clamp at %v = %v, engine = %v", c, got, want)
		}
	}
}

func TestSurfaceRejectsNaN(t *testing.T) {
	_, s := tipperSurface(t, 5)
	if _, err := s.Infer(math.NaN(), 5); err == nil {
		t.Error("NaN input accepted")
	}
	if _, err := s.Infer(5, math.NaN()); err == nil {
		t.Error("NaN input accepted")
	}
}

func TestSurfaceWrongArity(t *testing.T) {
	_, s := tipperSurface(t, 5)
	if _, err := s.Infer(1); err == nil {
		t.Error("1 input accepted by a 2-input surface")
	}
	if _, err := s.Infer(1, 2, 3); err == nil {
		t.Error("3 inputs accepted by a 2-input surface")
	}
}

func TestSurfaceAccessors(t *testing.T) {
	e, s := tipperSurface(t, 11)
	if s.Name() != e.Name() {
		t.Errorf("Name = %q, want %q", s.Name(), e.Name())
	}
	if s.NumInputs() != 2 {
		t.Errorf("NumInputs = %d", s.NumInputs())
	}
	// 11 uniform ticks plus in-universe breakpoints, deduped: at least the
	// uniform grid on each axis.
	if s.Points() < 11*11 {
		t.Errorf("Points = %d, want >= 121", s.Points())
	}
	if s.Output().Name != "tip" {
		t.Errorf("Output = %q", s.Output().Name)
	}
}

func TestSurfaceConvergesWithResolution(t *testing.T) {
	e := tipperEngine(t)
	coarse, err := NewSurface(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := NewSurface(e, 41)
	if err != nil {
		t.Fatal(err)
	}
	maxErr := func(s *Surface) float64 {
		worst := 0.0
		for service := 0.0; service <= 10; service += 0.37 {
			for food := 0.0; food <= 10; food += 0.41 {
				want, err := e.Infer(service, food)
				if err != nil {
					t.Fatalf("engine: %v", err)
				}
				got, err := s.Infer(service, food)
				if err != nil {
					t.Fatalf("surface: %v", err)
				}
				if d := math.Abs(got - want); d > worst {
					worst = d
				}
			}
		}
		return worst
	}
	ce, fe := maxErr(coarse), maxErr(fine)
	if fe >= ce {
		t.Errorf("refining the grid did not reduce the max error: res 5 -> %v, res 41 -> %v", ce, fe)
	}
	// The tipper output spans [0, 30]; a 41-tick grid must be accurate to a
	// small fraction of that span.
	if fe > 0.5 {
		t.Errorf("res-41 max error %v exceeds 0.5 on a [0,30] universe", fe)
	}
}

func TestNewSurfaceValidation(t *testing.T) {
	e := tipperEngine(t)
	if _, err := NewSurface(nil, 5); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewSurface(e, 1); err == nil {
		t.Error("resolution 1 accepted")
	}
	if _, err := NewSurface(e, -3); err == nil {
		t.Error("negative resolution accepted")
	}
	if _, err := NewSurface(e, 1<<13); err == nil || !strings.Contains(err.Error(), "grid points") {
		t.Errorf("oversized grid not rejected: %v", err)
	}
}

func TestSurfaceIsInferencer(t *testing.T) {
	e, s := tipperSurface(t, 5)
	for _, inf := range []Inferencer{e, s} {
		if _, err := inf.Infer(5, 5); err != nil {
			t.Errorf("%T.Infer: %v", inf, err)
		}
	}
}

// referenceSurfaceVals is the definition a compiled surface must meet bit
// for bit: one full Engine.Infer at every grid point, in row-major order,
// failing at the first point whose inference fails.
func referenceSurfaceVals(e *Engine, resolution int) ([]float64, error) {
	axes := make([][]float64, len(e.inputs))
	points := 1
	for i, v := range e.inputs {
		axes[i] = axisTicks(v, resolution)
		points *= len(axes[i])
	}
	vals := make([]float64, points)
	point := make([]float64, len(axes))
	idx := make([]int, len(axes))
	for p := range vals {
		for i := range idx {
			point[i] = axes[i][idx[i]]
		}
		crisp, err := e.Infer(point...)
		if err != nil {
			return nil, fmt.Errorf("fuzzy: surface for %q at %v: %w", e.name, point, err)
		}
		vals[p] = crisp

		// Advance the odometer, rightmost axis fastest (row-major order).
		for i := len(idx) - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(axes[i]) {
				break
			}
			idx[i] = 0
		}
	}
	return vals, nil
}

// checkSurfaceMatchesReference compiles e's surface and requires every
// grid value to equal referenceSurfaceVals bitwise, or both to fail with
// the same error text.
func checkSurfaceMatchesReference(t *testing.T, e *Engine, resolution int) {
	t.Helper()
	want, wantErr := referenceSurfaceVals(e, resolution)
	s, err := NewSurface(e, resolution)
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s at resolution %d: error %v, reference error %v", e.name, resolution, err, wantErr)
		}
		return
	}
	if len(s.vals) != len(want) {
		t.Fatalf("%s at resolution %d: %d points, reference %d", e.name, resolution, len(s.vals), len(want))
	}
	bad := 0
	for p, w := range want {
		if math.Float64bits(s.vals[p]) != math.Float64bits(w) {
			if bad == 0 {
				t.Errorf("%s at resolution %d: point %d = %v, reference %v", e.name, resolution, p, s.vals[p], w)
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%s at resolution %d: %d of %d points differ from the reference", e.name, resolution, bad, len(want))
	}
}

// gaussMF is a membership function that is not piecewise linear, so its
// axis gets no breakpoint ticks.
type gaussMF struct{ center, width float64 }

func (g gaussMF) Grade(x float64) float64 {
	z := (x - g.center) / g.width
	return math.Exp(-z * z / 2)
}

func (g gaussMF) Peak() float64 { return g.center }

// meanAND is not a t-norm: 1 is not its identity and 0 does not absorb.
// It makes a compile that ANDs a 1-D engine's grade with an implicit 1, or
// that skips the zero short-circuit, produce different strengths.
func meanAND(a, b float64) float64 { return (a + b) / 2 }

// syntheticEngine builds an engine over the given inputs whose complete
// rule base cycles through the output terms in cross-product order.
func syntheticEngine(t *testing.T, name string, inputs []Variable, opts ...Option) *Engine {
	t.Helper()
	out := MustVariable("out", -1, 2,
		Term{Name: "lo", MF: Tri(-1, 0, 1)},
		Term{Name: "mid", MF: Tri(0.5, 0.75, 0.75)},
		Term{Name: "hi", MF: gaussMF{center: 1.5, width: 0.3}},
		Term{Name: "top", MF: Trap(1.8, 2, 0.4, 0)},
	)
	n := 1
	for _, v := range inputs {
		n *= len(v.Terms)
	}
	consequents := make([]string, n)
	for i := range consequents {
		consequents[i] = out.Terms[(i*3+i/5)%len(out.Terms)].Name
	}
	rules, err := RuleTable(inputs, out, consequents)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(name, inputs, out, rules, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSurfaceMatchesReferenceSynthetic pins NewSurface bitwise to the
// per-point reference on engines the paper's controllers do not cover:
// one, two and four inputs, a Gaussian input term, a non-t-norm AND, the
// general defuzzifier path, and two ticks 1e-9 apart whose strength
// vectors differ only in their last digits.
func TestSurfaceMatchesReferenceSynthetic(t *testing.T) {
	near := MustVariable("near", 0, 1,
		Term{Name: "a", MF: Tri(0, 0, 1)},
		Term{Name: "b", MF: Tri(1, 1, 0)},
		Term{Name: "c", MF: Tri(0.5+1e-9, 0.25, 0.25)},
	)
	bell := MustVariable("bell", -3, 3,
		Term{Name: "neg", MF: gaussMF{center: -2, width: 1}},
		Term{Name: "zero", MF: gaussMF{center: 0, width: 0.5}},
		Term{Name: "pos", MF: Trap(2, 3, 2, 0)},
	)
	step := MustVariable("step", 0, 10,
		Term{Name: "low", MF: Tri(0, 0, 4)},
		Term{Name: "mid", MF: Tri(5, 3, 3)},
		Term{Name: "high", MF: Tri(10, 4, 0)},
	)
	pair := MustVariable("pair", 0, 4,
		Term{Name: "l", MF: LeftShoulder(1, 3)},
		Term{Name: "r", MF: RightShoulder(1, 3)},
	)
	shapes := map[string][]Variable{
		"1d":      {step},
		"1d-near": {near},
		"2d":      {near, bell},
		"4d":      {step, pair, bell, near},
	}
	ands := map[string]TNorm{"min": MinAND, "product": ProductAND, "mean": meanAND}
	defuzz := map[string]Defuzzifier{"centroid": Centroid{}, "height": Height{}}
	for shape, inputs := range shapes {
		for andName, and := range ands {
			for dName, d := range defuzz {
				name := shape + "/" + andName + "/" + dName
				t.Run(name, func(t *testing.T) {
					e := syntheticEngine(t, name, inputs, WithAND(and), WithDefuzzifier(d), WithSamples(101))
					for _, res := range []int{2, 5, 9} {
						checkSurfaceMatchesReference(t, e, res)
					}
				})
			}
		}
	}
}

// TestSurfaceNoRuleFiredMatchesReference pins the compile error of an
// engine with a gap in its first input: no rule fires on the grid planes
// 4 <= x <= 6, part way through the grid, and the error names the first
// such point in the reference's words.
func TestSurfaceNoRuleFiredMatchesReference(t *testing.T) {
	gap := MustVariable("gap", 0, 10,
		Term{Name: "left", MF: Tri(0, 0, 4)},
		Term{Name: "right", MF: Tri(10, 4, 0)},
	)
	other := MustVariable("other", 0, 1,
		Term{Name: "a", MF: Tri(0, 0, 1)},
		Term{Name: "b", MF: Tri(1, 1, 0)},
	)
	e := syntheticEngine(t, "gap", []Variable{gap, other})
	_, err := NewSurface(e, 11)
	if !errors.Is(err, ErrNoRuleFired) {
		t.Fatalf("NewSurface = %v, want ErrNoRuleFired", err)
	}
	const want = `fuzzy: surface for "gap" at [4 0]: fuzzy: engine "gap": ` +
		`fuzzy: no rule fired (aggregated output set is empty)`
	if err.Error() != want {
		t.Errorf("error = %q\n      want %q", err, want)
	}
	checkSurfaceMatchesReference(t, e, 11)
}
