package core

import (
	"math"
	"testing"

	"facsp/internal/fuzzy"
)

// axis returns n evenly spaced points from lo in steps of step, computed
// by multiplication so every point is exact to one rounding.
func axis(lo, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// refTermStrength is the textbook Mamdani aggregation, written against the
// engine's public API: fuzzify each input with Variable.Fuzzify, AND each
// rule's antecedent grades in input order, max per consequent term.
func refTermStrength(e *fuzzy.Engine, and fuzzy.TNorm, in []float64) []float64 {
	inputs := e.Inputs()
	grades := make([][]float64, len(inputs))
	for i, v := range inputs {
		grades[i] = v.Fuzzify(in[i])
	}
	ts := make([]float64, len(e.Output().Terms))
	for _, r := range e.Rules() {
		s := grades[0][r.When[0]]
		for vi := 1; vi < len(r.When) && s != 0; vi++ {
			s = and(s, grades[vi][r.When[vi]])
		}
		ts[r.Then] = math.Max(ts[r.Then], s)
	}
	return ts
}

// TestExactInferenceMatchesGeneralPath is the differential oracle for the
// allocation-free inference path on the paper's own controllers. On a
// dense grid over each FLC's inputs, reaching past every universe edge, for
// both conjunctions and several integration densities, it checks bitwise:
// the term strengths against the textbook aggregation; the centroid fast
// path against Centroid.Defuzz on the same strengths; Infer and InferBest
// against InferDetail().Crisp; and the best term.
func TestExactInferenceMatchesGeneralPath(t *testing.T) {
	flc1Grid := [][]float64{
		axis(-7.5, 7.5, 19), // Sp: -7.5..127.5 km/h
		axis(-195, 15, 27),  // An: -195..195 degrees
		axis(-1, 1, 13),     // Sr: -1..11 BU
	}
	flc2Grid := [][]float64{
		axis(-0.1, 0.1, 13), // Cv: -0.1..1.1
		axis(-1, 1, 13),     // Rq: -1..11 BU
		axis(-5, 2.5, 21),   // Cs: -5..45 BU
	}
	builds := []struct {
		name  string
		build func(...fuzzy.Option) (*fuzzy.Engine, error)
		grid  [][]float64
	}{
		{"FLC1", NewFLC1, flc1Grid},
		{"FLC2", NewFLC2, flc2Grid},
	}
	ands := []struct {
		name string
		and  fuzzy.TNorm
	}{{"min", fuzzy.MinAND}, {"product", fuzzy.ProductAND}}

	for _, b := range builds {
		for _, a := range ands {
			for _, samples := range []int{16, 101, 1001, 2001} {
				e, err := b.build(fuzzy.WithAND(a.and), fuzzy.WithSamples(samples))
				if err != nil {
					t.Fatal(err)
				}
				out := e.Output()
				mismatches := 0
				in := make([]float64, 3)
				for _, x := range b.grid[0] {
					for _, y := range b.grid[1] {
						for _, z := range b.grid[2] {
							in[0], in[1], in[2] = x, y, z
							res, err := e.InferDetail(in...)
							if err != nil {
								t.Fatalf("%s/%s/%d InferDetail%v: %v", b.name, a.name, samples, in, err)
							}
							ok := true
							for ti, s := range refTermStrength(e, a.and, in) {
								ok = ok && math.Float64bits(s) == math.Float64bits(res.TermStrength[ti])
							}
							want, err := fuzzy.Centroid{}.Defuzz(out, res.TermStrength, samples)
							ok = ok && err == nil && math.Float64bits(want) == math.Float64bits(res.Crisp)
							crisp, err := e.Infer(in...)
							ok = ok && err == nil && math.Float64bits(crisp) == math.Float64bits(res.Crisp)
							crisp, best, err := e.InferBest(in...)
							ok = ok && err == nil && math.Float64bits(crisp) == math.Float64bits(res.Crisp) &&
								best == res.BestTerm && best >= 0
							if !ok {
								if mismatches < 5 {
									t.Errorf("%s/%s/%d at %v: detail %v (best %d, strengths %v), centroid %v, InferBest %v (best %d)",
										b.name, a.name, samples, in, res.Crisp, res.BestTerm, res.TermStrength, want, crisp, best)
								}
								mismatches++
							}
						}
					}
				}
				if mismatches > 0 {
					t.Errorf("%s/%s/%d: %d mismatching grid points", b.name, a.name, samples, mismatches)
				}
			}
		}
	}
}

func TestControllersShareOneEnginePair(t *testing.T) {
	a, err := NewFACSP(DefaultPConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFACSP(DefaultPConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.flc1 != b.flc1 || a.flc2 != b.flc2 {
		t.Error("two default FACS-P controllers built separate engines")
	}
	f, err := NewFACS(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.flc1 != a.flc1 || f.flc2 != a.flc2 {
		t.Error("default FACS and FACS-P controllers built separate engines")
	}

	// Distinct keys build distinct pairs; non-comparable defuzzifiers
	// cannot be keyed and build privately.
	cfg := DefaultPConfig()
	cfg.Defuzzifier = fuzzy.Height{}
	h, err := NewFACSP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.flc1 == a.flc1 {
		t.Error("Height-defuzzifier controller shared the default engines")
	}
	cfg.Defuzzifier = uncacheableDefuzz{}
	c1, err := NewFACSP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewFACSP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c1.flc1 == c2.flc1 {
		t.Error("non-comparable defuzzifier controllers unexpectedly shared engines")
	}
}
