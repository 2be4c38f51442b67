package fuzzy

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoRuleFired is returned when every output term has zero activation, so
// the aggregated output set is empty and no crisp value exists.
var ErrNoRuleFired = errors.New("fuzzy: no rule fired (aggregated output set is empty)")

// Defuzzifier converts the Mamdani aggregated output set — the output
// Variable together with a clipped activation strength per term — into a
// crisp value. samples is the numeric-integration resolution over the
// output universe for defuzzifiers that integrate.
//
// Defuzz must be a pure function of its arguments: the same variable,
// strengths and samples always give the same result, and Defuzz neither
// keeps nor changes the strength slice. Surface compilation defuzzifies
// each distinct strength vector once and reuses the result, and the
// process-wide surface cache in internal/core shares surfaces between
// equal defuzzifier values; both rely on this.
type Defuzzifier interface {
	Defuzz(out Variable, strength []float64, samples int) (float64, error)
}

// Centroid is the centre-of-gravity defuzzifier used by the paper's
// companion work: the crisp output is the centroid of the aggregated
// (max of clipped terms) output set, computed by midpoint integration.
type Centroid struct{}

// Defuzz implements Defuzzifier.
func (Centroid) Defuzz(out Variable, strength []float64, samples int) (float64, error) {
	dx := (out.Max - out.Min) / float64(samples)
	var moment, area float64
	for i := 0; i < samples; i++ {
		x := out.Min + (float64(i)+0.5)*dx
		mu := out.AggregatedGrade(x, strength)
		moment += x * mu
		area += mu
	}
	if area == 0 {
		return 0, ErrNoRuleFired
	}
	return moment / area, nil
}

// MeanOfMaxima defuzzifies to the mean of the x values at which the
// aggregated output set attains its maximum (within a small tolerance, to
// absorb the flat tops created by clipping).
type MeanOfMaxima struct{}

// Defuzz implements Defuzzifier.
func (MeanOfMaxima) Defuzz(out Variable, strength []float64, samples int) (float64, error) {
	const tol = 1e-9
	dx := (out.Max - out.Min) / float64(samples)
	peak := 0.0
	var sum float64
	var count int
	for i := 0; i < samples; i++ {
		x := out.Min + (float64(i)+0.5)*dx
		mu := out.AggregatedGrade(x, strength)
		switch {
		case mu > peak+tol:
			peak = mu
			sum = x
			count = 1
		case mu >= peak-tol && mu > 0:
			sum += x
			count++
		}
	}
	if count == 0 || peak == 0 {
		return 0, ErrNoRuleFired
	}
	return sum / float64(count), nil
}

// Bisector defuzzifies to the x that splits the aggregated output set's
// area in half.
type Bisector struct{}

// Defuzz implements Defuzzifier.
func (Bisector) Defuzz(out Variable, strength []float64, samples int) (float64, error) {
	dx := (out.Max - out.Min) / float64(samples)
	areas := make([]float64, samples)
	total := 0.0
	for i := 0; i < samples; i++ {
		x := out.Min + (float64(i)+0.5)*dx
		a := out.AggregatedGrade(x, strength) * dx
		areas[i] = a
		total += a
	}
	if total == 0 {
		return 0, ErrNoRuleFired
	}
	half := total / 2
	run := 0.0
	for i, a := range areas {
		run += a
		if run >= half {
			return out.Min + (float64(i)+0.5)*dx, nil
		}
	}
	return out.Max, nil // floating-point slack: all mass consumed without crossing half
}

// Height is the height (weighted-average-of-peaks) defuzzifier: the crisp
// output is the activation-weighted mean of each output term's peak. It
// requires every output term's membership function to implement Peaked.
// It is markedly cheaper than Centroid because it does not integrate, at
// the cost of ignoring term shape.
type Height struct{}

// Defuzz implements Defuzzifier.
func (Height) Defuzz(out Variable, strength []float64, _ int) (float64, error) {
	var num, den float64
	for i, t := range out.Terms {
		s := strength[i]
		if s == 0 {
			continue
		}
		p, ok := t.MF.(Peaked)
		if !ok {
			return 0, fmt.Errorf("fuzzy: height defuzzifier: output term %q (%T) has no peak", t.Name, t.MF)
		}
		peak := p.Peak()
		if math.IsInf(peak, 0) || math.IsNaN(peak) {
			return 0, fmt.Errorf("fuzzy: height defuzzifier: output term %q has non-finite peak %v", t.Name, peak)
		}
		num += s * peak
		den += s
	}
	if den == 0 {
		return 0, ErrNoRuleFired
	}
	return num / den, nil
}
