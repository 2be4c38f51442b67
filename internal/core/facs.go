package core

import (
	"fmt"
	"sync"

	"facsp/internal/cac"
	"facsp/internal/fuzzy"
)

// DefaultThreshold is the crisp A/R value a new request must exceed to be
// admitted. The paper's five-outcome soft decision reads naturally as
// "admit on Weak Accept or better, treat Not-Reject-Not-Accept as a block
// for new calls" (a CAC 'may block additional calls even if there are
// enough resources', Section 1); 0.15 is the crossover between the NRNA
// (peak 0) and WA (peak 0.3) output terms.
const DefaultThreshold = 0.15

// Config parameterises a FACS controller. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Capacity is the base station's total bandwidth in BU (paper: 40).
	Capacity float64
	// Threshold is the crisp A/R value a new request must exceed to be
	// admitted (default DefaultThreshold).
	Threshold float64
	// Defuzzifier overrides the engines' defuzzifier (default Centroid).
	Defuzzifier fuzzy.Defuzzifier
	// Samples overrides the defuzzification integration resolution.
	Samples int
	// SurfaceResolution, when positive, compiles FLC1 and FLC2 into
	// precomputed decision surfaces (fuzzy.Surface) with this many base
	// ticks per input axis and answers Admit by multilinear interpolation
	// instead of a full Mamdani pass — orders of magnitude faster, with a
	// small, bounded interpolation error (see EXPERIMENTS.md). The soft
	// Outcome label is then derived from the interpolated score's dominant
	// output term rather than the rule-activation trace. 0 keeps exact
	// inference.
	SurfaceResolution int
}

// WithSurfaceCache returns a copy of the config with the decision-surface
// cache enabled at the given per-axis resolution; a non-positive resolution
// selects DefaultSurfaceResolution.
func (c Config) WithSurfaceCache(resolution int) Config {
	if resolution <= 0 {
		resolution = DefaultSurfaceResolution
	}
	c.SurfaceResolution = resolution
	return c
}

// DefaultConfig returns the paper's simulation configuration.
func DefaultConfig() Config {
	return Config{
		Capacity:  CounterMax,
		Threshold: DefaultThreshold,
		Samples:   fuzzy.DefaultSamples,
	}
}

func (c Config) validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("core: capacity %v must be positive", c.Capacity)
	}
	if c.Threshold < ARMin || c.Threshold > ARMax {
		return fmt.Errorf("core: threshold %v outside A/R universe [%v, %v]", c.Threshold, ARMin, ARMax)
	}
	if err := ValidateSurfaceResolution(c.SurfaceResolution); err != nil {
		return err
	}
	return nil
}

// Decision is the rich, fuzzy-specific verdict produced by the FACS family.
// It embeds the scheme-independent cac.Decision and adds the intermediate
// quantities the paper's block diagram exposes (Fig. 4).
type Decision struct {
	cac.Decision
	// Cv is the correction value produced by FLC1.
	Cv float64
	// Threshold is the admission threshold the score was compared against
	// (fixed for FACS, load-adaptive for FACS-P).
	Threshold float64
}

// FACS is the paper's previous (non-priority) fuzzy admission control
// system: FLC1 -> FLC2 -> fixed-threshold accept, with a single occupancy
// counter feeding the Cs input. It implements cac.Controller and is safe
// for concurrent use.
type FACS struct {
	flc1 *fuzzy.Engine
	flc2 *fuzzy.Engine
	// surf1 and surf2 are the precomputed decision surfaces standing in for
	// flc1/flc2 when cfg.SurfaceResolution > 0; nil means exact inference.
	surf1 *fuzzy.Surface
	surf2 *fuzzy.Surface
	cfg   Config

	mu   sync.Mutex
	used float64
}

var (
	_ cac.Controller = (*FACS)(nil)
	_ cac.Named      = (*FACS)(nil)
)

// NewFACS builds a FACS controller.
func NewFACS(cfg Config) (*FACS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	flc1, flc2, err := flcPair(cfg.Samples, cfg.Defuzzifier)
	if err != nil {
		return nil, err
	}
	f := &FACS{flc1: flc1, flc2: flc2, cfg: cfg}
	if cfg.SurfaceResolution > 0 {
		f.surf1, f.surf2, err = surfacePair(flc1, flc2, cfg.SurfaceResolution, cfg.Samples, cfg.Defuzzifier)
		if err != nil {
			return nil, fmt.Errorf("core: compiling decision surfaces: %w", err)
		}
	}
	return f, nil
}

// SchemeName implements cac.Named.
func (f *FACS) SchemeName() string { return "FACS" }

// Capacity implements cac.Controller.
func (f *FACS) Capacity() float64 { return f.cfg.Capacity }

// Occupancy implements cac.Controller.
func (f *FACS) Occupancy() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.used
}

// Evaluate runs the two-stage inference for a request against an explicit
// counter state, without reserving anything. It is the pure decision
// function; Admit wraps it with the occupancy bookkeeping.
func (f *FACS) Evaluate(req cac.Request, counterBU float64) (Decision, error) {
	if err := req.Validate(); err != nil {
		return Decision{}, err
	}
	// Scale occupancy into the Cs universe so that non-default capacities
	// keep the paper's linguistic meaning of Small/Middle/Full.
	cs := counterBU * CounterMax / f.cfg.Capacity
	cv, score, outcome, err := inferScore(f.flc1, f.flc2, f.surf1, f.surf2,
		req.Speed, req.Angle, req.Bandwidth, cs)
	if err != nil {
		return Decision{}, err
	}
	d := Decision{
		Decision: cac.Decision{
			Score:   score,
			Outcome: outcome,
		},
		Cv:        cv,
		Threshold: f.cfg.Threshold,
	}
	d.Accept = score > f.cfg.Threshold
	return d, nil
}

// Admit implements cac.Controller. The fuzzy verdict is combined with the
// hard physical constraint that a base station cannot allocate more
// bandwidth than it has.
func (f *FACS) Admit(req cac.Request) cac.Decision {
	f.mu.Lock()
	defer f.mu.Unlock()

	d, err := f.Evaluate(req, f.used)
	if err != nil {
		return cac.Decision{Accept: false, Score: ARMin, Outcome: "error: " + err.Error(), Occupancy: f.used}
	}
	if d.Accept && f.used+req.Bandwidth > f.cfg.Capacity {
		d.Accept = false
		d.Outcome = "capacity"
	}
	if d.Accept {
		f.used += req.Bandwidth
	}
	d.Occupancy = f.used
	return d.Decision
}

// Release implements cac.Controller.
func (f *FACS) Release(req cac.Request) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if req.Bandwidth > f.used+1e-9 {
		return fmt.Errorf("core: FACS release of %v BU exceeds occupancy %v", req.Bandwidth, f.used)
	}
	f.used -= req.Bandwidth
	if f.used < 0 {
		f.used = 0
	}
	return nil
}

// Reset clears the occupancy counter, returning the controller to an empty
// cell. Experiments use it between replications.
func (f *FACS) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.used = 0
}
