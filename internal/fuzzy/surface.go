package fuzzy

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Inferencer is the read side shared by Engine and Surface: anything that
// maps crisp inputs to a crisp output. Controllers program against it so an
// exact Mamdani pass and a precomputed surface are interchangeable.
type Inferencer interface {
	Infer(inputs ...float64) (float64, error)
}

var (
	_ Inferencer = (*Engine)(nil)
	_ Inferencer = (*Surface)(nil)
)

const (
	// DefaultSurfaceResolution is the per-axis base tick count used when a
	// surface is requested without an explicit resolution. Together with
	// breakpoint alignment it keeps the interpolation error of the paper's
	// controllers well below the softness of their linguistic scales.
	DefaultSurfaceResolution = 33

	// maxSurfaceDims bounds the input dimensionality of a Surface; the
	// interpolation loop visits 2^d corners and keeps its per-call state on
	// the stack up to this arity.
	maxSurfaceDims = 8

	// maxSurfacePoints caps the precomputed grid so a mistyped resolution
	// fails fast instead of exhausting memory.
	maxSurfacePoints = 1 << 24
)

// Surface is a quantized decision surface: an Engine's crisp output
// precomputed on an N-dimensional grid over its input universes, answered at
// query time by multilinear interpolation.
//
// The grid on each axis is the union of a uniform partition and the
// breakpoints of every membership function on that axis, so the kinks of the
// piecewise-linear fuzzification land exactly on grid planes instead of
// being smeared across a cell. Construction fuzzifies each tick once per
// axis, folds every rule's AND over the leading axes once per prefix
// point, then costs one AND per live rule at each point of the last axis;
// it defuzzifies each distinct term-strength vector once (about 20% of the
// points of the paper's FLC1 at resolution 33, 11% of FLC2's). Lookups
// afterwards cost 2^d multiply-adds and no allocation, which is what makes
// admission-rate workloads tractable (see core.Config.SurfaceResolution
// and EXPERIMENTS.md).
//
// A Surface is immutable and safe for concurrent use.
type Surface struct {
	name    string
	axes    [][]float64 // sorted tick positions per input dimension
	strides []int       // row-major strides, last axis fastest
	vals    []float64   // crisp output at every grid point
	output  Variable
}

// NewSurface precomputes the decision surface of e with at least resolution
// uniform ticks per input axis (plus every membership-function breakpoint).
// A resolution below 2 is an error; the engine's inference errors, if any,
// surface here rather than at query time.
func NewSurface(e *Engine, resolution int) (*Surface, error) {
	s, _, err := compileSurface(e, resolution)
	return s, err
}

// compileSurface is NewSurface that also reports how many distinct
// term-strength vectors it defuzzified.
//
// Every grid value is bit-identical to e.Infer at that grid point: the
// tick grades come from the same Clamp and Grade calls, every rule's AND
// folds its antecedents in the same order with the same zero
// short-circuit as aggregate, and the terms max-aggregate in rule order.
// Only the sharing differs. Each tick is fuzzified once per axis; each
// rule's AND over the leading axes is folded once per prefix point, and
// rules whose prefix is zero are dropped there; and a strength vector
// seen before reuses its crisp value. The last is sound because Defuzz
// is a pure function of its arguments.
func compileSurface(e *Engine, resolution int) (*Surface, int, error) {
	if e == nil {
		return nil, 0, fmt.Errorf("fuzzy: NewSurface of nil engine")
	}
	if resolution < 2 {
		return nil, 0, fmt.Errorf("fuzzy: surface for %q: resolution %d below 2", e.name, resolution)
	}
	if len(e.inputs) > maxSurfaceDims {
		return nil, 0, fmt.Errorf("fuzzy: surface for %q: %d inputs exceeds the %d-dimension limit",
			e.name, len(e.inputs), maxSurfaceDims)
	}

	axes := make([][]float64, len(e.inputs))
	points := 1
	for i, v := range e.inputs {
		axes[i] = axisTicks(v, resolution)
		points *= len(axes[i])
		if points > maxSurfacePoints {
			return nil, 0, fmt.Errorf("fuzzy: surface for %q exceeds %d grid points", e.name, maxSurfacePoints)
		}
	}
	strides := make([]int, len(axes))
	strides[len(axes)-1] = 1
	for i := len(axes) - 2; i >= 0; i-- {
		strides[i] = strides[i+1] * len(axes[i+1])
	}

	// grades[i][k*len(Terms)+t] is term t's grade at tick k of axis i.
	grades := make([][]float64, len(axes))
	for i, v := range e.inputs {
		nt := len(v.Terms)
		grades[i] = make([]float64, len(axes[i])*nt)
		for k, x := range axes[i] {
			x = v.Clamp(x)
			for t, term := range v.Terms {
				grades[i][k*nt+t] = term.MF.Grade(x)
			}
		}
	}

	// The leading axes form the prefix; the last axis is the fastest.
	last := len(axes) - 1
	lastTerms := len(e.inputs[last].Terms)
	type liveRule struct {
		prefix float64 // AND over the prefix axes; unused for a 1-D engine
		term   int     // antecedent term on the last axis
		then   int
	}
	live := make([]liveRule, 0, len(e.rules))
	strength := make([]float64, len(e.output.Terms))
	key := make([]byte, 8*len(strength))
	memo := make(map[string]float64)
	defuzzified := 0
	vals := make([]float64, points)
	idx := make([]int, last) // the tick on each prefix axis

	for base := 0; base < points; base += len(axes[last]) {
		live = live[:0]
		for _, r := range e.rules {
			if last == 0 {
				live = append(live, liveRule{term: r.When[0], then: r.Then})
				continue
			}
			s := grades[0][idx[0]*len(e.inputs[0].Terms)+r.When[0]]
			for i := 1; i < last; i++ {
				if s == 0 {
					break // conjunction cannot recover once any AND operand is 0
				}
				s = e.and(s, grades[i][idx[i]*len(e.inputs[i].Terms)+r.When[i]])
			}
			if s != 0 {
				live = append(live, liveRule{prefix: s, term: r.When[last], then: r.Then})
			}
		}

		for k := range axes[last] {
			g := grades[last][k*lastTerms : (k+1)*lastTerms]
			clear(strength)
			for _, r := range live {
				s := g[r.term]
				if last > 0 {
					s = e.and(r.prefix, s)
				}
				if s > strength[r.then] {
					strength[r.then] = s
				}
			}
			for t, s := range strength {
				binary.LittleEndian.PutUint64(key[8*t:], math.Float64bits(s))
			}
			crisp, ok := memo[string(key)]
			if !ok {
				var err error
				defuzzified++
				if crisp, err = e.defuzzify(strength); err != nil {
					point := make([]float64, 0, len(axes))
					for i, j := range idx {
						point = append(point, axes[i][j])
					}
					point = append(point, axes[last][k])
					return nil, 0, fmt.Errorf("fuzzy: surface for %q at %v: %w", e.name, point,
						fmt.Errorf("fuzzy: engine %q: %w", e.name, err))
				}
				memo[string(key)] = crisp
			}
			vals[base+k] = crisp
		}

		// Advance the prefix odometer, rightmost axis fastest (row-major order).
		for i := last - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(axes[i]) {
				break
			}
			idx[i] = 0
		}
	}

	return &Surface{
		name:    e.name,
		axes:    axes,
		strides: strides,
		vals:    vals,
		output:  e.output,
	}, defuzzified, nil
}

// axisTicks builds one axis of the grid: resolution uniform ticks over the
// universe, plus every in-universe membership breakpoint, sorted and deduped.
func axisTicks(v Variable, resolution int) []float64 {
	ticks := make([]float64, 0, resolution+4*len(v.Terms))
	span := v.Max - v.Min
	for i := 0; i < resolution; i++ {
		ticks = append(ticks, v.Min+span*float64(i)/float64(resolution-1))
	}
	for _, t := range v.Terms {
		pl, ok := t.MF.(PiecewiseLinear)
		if !ok {
			continue
		}
		for _, b := range pl.Breakpoints() {
			if b > v.Min && b < v.Max { // universe edges are already ticks
				ticks = append(ticks, b)
			}
		}
	}
	sort.Float64s(ticks)

	// Collapse duplicates (shared breakpoints, breakpoints landing on
	// uniform ticks) within a span-relative epsilon.
	eps := span * 1e-12
	out := ticks[:1]
	for _, x := range ticks[1:] {
		if x-out[len(out)-1] > eps {
			out = append(out, x)
		}
	}
	return out
}

// Name returns the name of the engine the surface was compiled from.
func (s *Surface) Name() string { return s.name }

// NumInputs returns the surface's input arity.
func (s *Surface) NumInputs() int { return len(s.axes) }

// Points returns the total number of precomputed grid points.
func (s *Surface) Points() int { return len(s.vals) }

// Output returns the output variable of the compiled engine.
func (s *Surface) Output() Variable { return s.output }

// Infer implements Inferencer by multilinear interpolation over the
// precomputed grid. Inputs are clamped to each axis's universe, matching
// Engine; NaN inputs are rejected.
func (s *Surface) Infer(inputs ...float64) (float64, error) {
	if len(inputs) != len(s.axes) {
		return 0, fmt.Errorf("fuzzy: surface %q: got %d inputs, want %d", s.name, len(inputs), len(s.axes))
	}
	var lo [maxSurfaceDims]int
	var frac [maxSurfaceDims]float64
	for i, x := range inputs {
		if math.IsNaN(x) {
			return 0, fmt.Errorf("fuzzy: surface %q: input %d is NaN", s.name, i)
		}
		ax := s.axes[i]
		last := len(ax) - 1
		switch {
		case x <= ax[0]:
			lo[i], frac[i] = 0, 0
		case x >= ax[last]:
			lo[i], frac[i] = last-1, 1
		default:
			// j is the first tick >= x, so x lies in (ax[j-1], ax[j]].
			j := sort.SearchFloat64s(ax, x)
			lo[i] = j - 1
			frac[i] = (x - ax[j-1]) / (ax[j] - ax[j-1])
		}
	}

	d := len(s.axes)
	out := 0.0
	for corner := 0; corner < 1<<d; corner++ {
		w := 1.0
		off := 0
		for i := 0; i < d; i++ {
			if corner&(1<<i) != 0 {
				w *= frac[i]
				off += (lo[i] + 1) * s.strides[i]
			} else {
				w *= 1 - frac[i]
				off += lo[i] * s.strides[i]
			}
			if w == 0 {
				break
			}
		}
		if w != 0 {
			out += w * s.vals[off]
		}
	}
	return out, nil
}
