package fuzzy

import (
	"fmt"
	"math"
	"strings"
)

// TNorm is a fuzzy AND: it combines the membership grades of a rule's
// antecedents into the rule's activation strength.
type TNorm func(a, b float64) float64

// MinAND is the standard Mamdani conjunction (Zadeh AND).
func MinAND(a, b float64) float64 { return math.Min(a, b) }

// ProductAND is the probabilistic conjunction; it yields smoother control
// surfaces than MinAND and is offered for ablation studies.
func ProductAND(a, b float64) float64 { return a * b }

const (
	// DefaultSamples is the default numeric-integration resolution for
	// integrating defuzzifiers. 1001 points over a unit universe keeps the
	// centroid error well below the softness of the linguistic scale.
	DefaultSamples = 1001

	// minSamples guards against degenerate integration grids.
	minSamples = 16
)

const (
	// maxStackGrades and maxStackTerms bound the input term grades and the
	// output term strengths one inference keeps on the stack; engines with
	// wider variables (none in this repository) spill to the heap.
	maxStackGrades = 64
	maxStackTerms  = 32
)

// Engine is an immutable Mamdani fuzzy-inference engine: fuzzifier,
// rule-base inference (AND across antecedents, max aggregation across
// rules), and defuzzifier, as in Fig. 2 of the paper.
//
// An Engine is safe for concurrent use: Infer does not mutate engine state.
type Engine struct {
	name    string
	inputs  []Variable
	output  Variable
	rules   []Rule
	and     TNorm
	defuzz  Defuzzifier
	samples int

	// The rule base flattened for allocation-free inference: nGrades is the
	// total term count across the inputs, and ante[ri*len(inputs)+vi] is the
	// index of rule ri's antecedent grade for input vi in the concatenation
	// of every input's term grades.
	nGrades int
	ante    []int

	// Centroid fast path: output-term membership grades pre-evaluated on the
	// integration grid, so defuzzification is table lookups instead of
	// interface-dispatched Grade calls. sampleX[i] is the i-th midpoint
	// sample over the output universe; support[t] holds term t's grades
	// over the samples where they are non-zero. Populated only for the
	// Centroid defuzzifier; the numbers it produces are bit-identical to
	// Centroid.Defuzz.
	sampleX []float64
	support []termSupport
}

// termSupport is one output term's slice of the centroid grade table:
// grade[i-lo] is the term's grade at sample i for lo <= i < hi, and the
// grade is zero at every sample outside [lo, hi).
type termSupport struct {
	lo, hi int
	grade  []float64
}

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithAND selects the conjunction operator (default MinAND).
func WithAND(and TNorm) Option { return func(e *Engine) { e.and = and } }

// WithDefuzzifier selects the defuzzifier (default Centroid).
func WithDefuzzifier(d Defuzzifier) Option { return func(e *Engine) { e.defuzz = d } }

// WithSamples sets the numeric-integration resolution (default
// DefaultSamples; values below a small floor are raised to it).
func WithSamples(n int) Option { return func(e *Engine) { e.samples = n } }

// NewEngine constructs and validates an engine. The rule base must cover
// the complete cross product of input terms exactly once; both of the
// paper's rule bases (Tables 1 and 2) have this property, and requiring it
// catches transcription mistakes at startup rather than mid-simulation.
func NewEngine(name string, inputs []Variable, output Variable, rules []Rule, opts ...Option) (*Engine, error) {
	if name == "" {
		return nil, fmt.Errorf("fuzzy: engine has empty name")
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("fuzzy: engine %q has no input variables", name)
	}
	for _, in := range inputs {
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("fuzzy: engine %q: input: %w", name, err)
		}
	}
	if err := output.Validate(); err != nil {
		return nil, fmt.Errorf("fuzzy: engine %q: output: %w", name, err)
	}
	if err := validateRules(inputs, output, rules, true); err != nil {
		return nil, fmt.Errorf("fuzzy: engine %q: %w", name, err)
	}

	e := &Engine{
		name:    name,
		inputs:  append([]Variable(nil), inputs...),
		output:  output,
		rules:   append([]Rule(nil), rules...),
		and:     MinAND,
		defuzz:  Centroid{},
		samples: DefaultSamples,
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.samples < minSamples {
		e.samples = minSamples
	}
	if e.and == nil {
		return nil, fmt.Errorf("fuzzy: engine %q: nil AND operator", name)
	}
	if e.defuzz == nil {
		return nil, fmt.Errorf("fuzzy: engine %q: nil defuzzifier", name)
	}
	e.flattenRules()
	if _, centroid := e.defuzz.(Centroid); centroid {
		e.buildGradeTable()
	}
	return e, nil
}

// flattenRules builds the flat antecedent index table used by aggregate.
func (e *Engine) flattenRules() {
	off := make([]int, len(e.inputs))
	for i, v := range e.inputs {
		off[i] = e.nGrades
		e.nGrades += len(v.Terms)
	}
	e.ante = make([]int, 0, len(e.rules)*len(e.inputs))
	for _, r := range e.rules {
		for vi, w := range r.When {
			e.ante = append(e.ante, off[vi]+w)
		}
	}
}

// buildGradeTable precomputes the output-term grades on the integration
// grid used by the centroid fast path, term-major, keeping only each
// term's non-zero range.
func (e *Engine) buildGradeTable() {
	dx := (e.output.Max - e.output.Min) / float64(e.samples)
	e.sampleX = make([]float64, e.samples)
	for i := range e.sampleX {
		e.sampleX[i] = e.output.Min + (float64(i)+0.5)*dx
	}
	row := make([]float64, e.samples)
	e.support = make([]termSupport, len(e.output.Terms))
	for t, term := range e.output.Terms {
		lo, hi := len(row), 0
		for i, x := range e.sampleX {
			// A grade that is not positive (or NaN, from a custom MF) never
			// raises Centroid.Defuzz's running max, so it is stored as 0.
			row[i] = 0
			if g := term.MF.Grade(x); g > 0 {
				row[i], lo, hi = g, min(lo, i), i+1
			}
		}
		if lo < hi {
			e.support[t] = termSupport{lo: lo, hi: hi, grade: append([]float64(nil), row[lo:hi]...)}
		}
	}
}

// defuzzify dispatches to the centroid fast path when available, otherwise
// to the configured Defuzzifier.
func (e *Engine) defuzzify(strength []float64) (float64, error) {
	if e.support == nil {
		return e.defuzzGeneral(strength)
	}
	// Only activated output terms can contribute to the max; with the
	// paper's rule bases that is typically 2-5 of 9 terms. Cut the grid at
	// both ends of each one's support, in sample order: between two
	// neighbouring cuts the set of terms covering a sample is fixed.
	var active [maxStackTerms]int
	var cuts [2 * maxStackTerms]int
	na, nc := 0, 0
	for t, s := range strength {
		if !(s > 0) || e.support[t].lo == e.support[t].hi {
			continue // inactive, or zero at every sample
		}
		if na == len(active) {
			// Implausibly wide activation; take the general path.
			return e.defuzzGeneral(strength)
		}
		active[na] = t
		na++
		for _, c := range [2]int{e.support[t].lo, e.support[t].hi} {
			j := nc
			for ; j > 0 && cuts[j-1] > c; j-- {
				cuts[j] = cuts[j-1]
			}
			cuts[j] = c
			nc++
		}
	}

	// Sweep the segments in sample order, forming moment and area as
	// Centroid.Defuzz does from mu = max_k min(s_k, g_k(x)) over the
	// covering terms; max and min are exact in any order. A sample no
	// active term covers has mu = 0, and skipping it only skips adding +0
	// to the sums. One and two covering terms, the only cases the paper's
	// controllers produce, get dedicated loops.
	var moment, area float64
	var cover [maxStackTerms]int
	for ci := 1; ci < nc; ci++ {
		a, b := cuts[ci-1], cuts[ci]
		if a == b {
			continue
		}
		nv := 0
		for _, t := range active[:na] {
			if e.support[t].lo <= a && b <= e.support[t].hi {
				cover[nv] = t
				nv++
			}
		}
		xs := e.sampleX[a:b]
		switch nv {
		case 0:
		case 1:
			g, s := e.support[cover[0]].over(a, b), strength[cover[0]]
			for i, x := range xs {
				mu := min(g[i], s)
				moment += x * mu
				area += mu
			}
		case 2:
			g, s := e.support[cover[0]].over(a, b), strength[cover[0]]
			h, r := e.support[cover[1]].over(a, b), strength[cover[1]]
			for i, x := range xs {
				mu := max(min(g[i], s), min(h[i], r))
				moment += x * mu
				area += mu
			}
		default:
			for i, x := range xs {
				mu := 0.0
				for _, t := range cover[:nv] {
					mu = max(mu, min(e.support[t].grade[a+i-e.support[t].lo], strength[t]))
				}
				moment += x * mu
				area += mu
			}
		}
	}
	if area == 0 {
		return 0, ErrNoRuleFired
	}
	return moment / area, nil
}

// over returns the term's grades at samples a through b-1, which must lie
// inside [lo, hi).
func (s *termSupport) over(a, b int) []float64 { return s.grade[a-s.lo : b-s.lo] }

// defuzzGeneral runs the configured Defuzzifier on a heap copy of the
// strengths: the interface call would otherwise make every caller's
// strength buffer escape, including the stack buffers of the fast path.
func (e *Engine) defuzzGeneral(strength []float64) (float64, error) {
	return e.defuzz.Defuzz(e.output, append([]float64(nil), strength...), e.samples)
}

// MustEngine is NewEngine that panics on error, for statically authored
// controllers.
func MustEngine(name string, inputs []Variable, output Variable, rules []Rule, opts ...Option) *Engine {
	e, err := NewEngine(name, inputs, output, rules, opts...)
	if err != nil {
		panic(err.Error())
	}
	return e
}

// Name returns the engine's name.
func (e *Engine) Name() string { return e.name }

// Inputs returns a copy of the engine's input variables.
func (e *Engine) Inputs() []Variable { return append([]Variable(nil), e.inputs...) }

// Output returns the engine's output variable.
func (e *Engine) Output() Variable { return e.output }

// Rules returns a copy of the engine's rule base.
func (e *Engine) Rules() []Rule { return append([]Rule(nil), e.rules...) }

// Result carries the full trace of one inference, for diagnostics,
// explanation and tests.
type Result struct {
	// Crisp is the defuzzified output value.
	Crisp float64
	// RuleStrength is the activation strength of each rule, in rule order.
	RuleStrength []float64
	// TermStrength is the aggregated (max) activation of each output term.
	TermStrength []float64
	// BestTerm is the index of the most activated output term, or -1 if no
	// rule fired.
	BestTerm int
}

// Infer runs fuzzification, rule evaluation, aggregation and
// defuzzification for the given crisp inputs (one per input variable, in
// order; values are clamped to each variable's universe). With the
// default Centroid defuzzifier it does not allocate.
func (e *Engine) Infer(inputs ...float64) (float64, error) {
	crisp, _, err := e.InferBest(inputs...)
	return crisp, err
}

// InferBest is Infer that also returns the index of the most activated
// output term (Result.BestTerm) without building the rest of the trace.
func (e *Engine) InferBest(inputs ...float64) (crisp float64, best int, err error) {
	var buf [maxStackTerms]float64
	var termStrength []float64
	if n := len(e.output.Terms); n <= len(buf) {
		termStrength = buf[:n]
	} else {
		termStrength = make([]float64, n)
	}
	if err := e.aggregate(inputs, nil, termStrength); err != nil {
		return 0, -1, err
	}
	crisp, err = e.defuzzify(termStrength)
	if err != nil {
		return 0, -1, fmt.Errorf("fuzzy: engine %q: %w", e.name, err)
	}
	return crisp, bestTerm(termStrength), nil
}

// InferDetail is Infer returning the full inference trace. Inputs are
// clamped to their universes (an out-of-range crisp value is simply the
// nearest edge, as the paper treats out-of-range measurements); NaN carries
// no such nearest value and is rejected.
func (e *Engine) InferDetail(inputs ...float64) (Result, error) {
	ruleStrength := make([]float64, len(e.rules))
	termStrength := make([]float64, len(e.output.Terms))
	if err := e.aggregate(inputs, ruleStrength, termStrength); err != nil {
		return Result{}, err
	}
	crisp, err := e.defuzzify(termStrength)
	if err != nil {
		return Result{}, fmt.Errorf("fuzzy: engine %q: %w", e.name, err)
	}
	return Result{
		Crisp:        crisp,
		RuleStrength: ruleStrength,
		TermStrength: termStrength,
		BestTerm:     bestTerm(termStrength),
	}, nil
}

// aggregate fuzzifies the inputs and evaluates the rule base, writing the
// max-aggregated activation of each output term into termStrength (which
// must be zeroed) and, when ruleStrength is non-nil, each rule's
// activation.
func (e *Engine) aggregate(inputs, ruleStrength, termStrength []float64) error {
	if len(inputs) != len(e.inputs) {
		return fmt.Errorf("fuzzy: engine %q: got %d inputs, want %d", e.name, len(inputs), len(e.inputs))
	}
	for i, x := range inputs {
		if math.IsNaN(x) {
			return fmt.Errorf("fuzzy: engine %q: input %d (%s) is NaN", e.name, i, e.inputs[i].Name)
		}
	}

	// Fuzzify every input once; rules then index into the grade table.
	var buf [maxStackGrades]float64
	var grades []float64
	if e.nGrades <= len(buf) {
		grades = buf[:e.nGrades]
	} else {
		grades = make([]float64, e.nGrades)
	}
	g := grades
	for i, v := range e.inputs {
		x := v.Clamp(inputs[i])
		for t, term := range v.Terms {
			g[t] = term.MF.Grade(x)
		}
		g = g[len(v.Terms):]
	}

	nin := len(e.inputs)
	for ri, r := range e.rules {
		ante := e.ante[ri*nin : (ri+1)*nin]
		s := grades[ante[0]]
		for _, gi := range ante[1:] {
			if s == 0 {
				break // conjunction cannot recover once any AND operand is 0
			}
			s = e.and(s, grades[gi])
		}
		if ruleStrength != nil {
			ruleStrength[ri] = s
		}
		if s > termStrength[r.Then] {
			termStrength[r.Then] = s
		}
	}
	return nil
}

// bestTerm returns the index of the most activated output term (ties go to
// the earliest), or -1 when no term is active.
func bestTerm(termStrength []float64) int {
	best, bestS := -1, 0.0
	for ti, s := range termStrength {
		if s > bestS {
			best, bestS = ti, s
		}
	}
	return best
}

// DescribeRule renders rule ri with variable and term names, e.g.
// "IF Sp is Sl AND An is St AND Sr is Me THEN Cv is Cv9".
func (e *Engine) DescribeRule(ri int) (string, error) {
	if ri < 0 || ri >= len(e.rules) {
		return "", fmt.Errorf("fuzzy: engine %q has no rule %d", e.name, ri)
	}
	r := e.rules[ri]
	var b strings.Builder
	b.WriteString("IF ")
	for vi, w := range r.When {
		if vi > 0 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "%s is %s", e.inputs[vi].Name, e.inputs[vi].Terms[w].Name)
	}
	fmt.Fprintf(&b, " THEN %s is %s", e.output.Name, e.output.Terms[r.Then].Name)
	return b.String(), nil
}
