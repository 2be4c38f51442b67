package core

import (
	"fmt"
	"sync"

	"facsp/internal/cac"
	"facsp/internal/fuzzy"
)

// PConfig parameterises a FACS-P controller.
//
// The paper specifies the priority mechanism only as a block diagram
// (Fig. 4: Ds splits admitted traffic into the RTC and NRTC counters).
// We realise it as a load-adaptive admission threshold for new calls:
//
//	theta = Theta0 + Gain * (RTWeight*RTC + NRTWeight*NRTC) / Capacity
//
// where RTC and NRTC are the bandwidth units held by on-going real-time
// and non-real-time connections. An empty cell is *more* lenient than
// FACS (Theta0 < DefaultThreshold), a loaded cell is stricter — which
// reproduces the crossover of Fig. 10 and the paper's claim that FACS-P
// "keeps the QoS of on-going connections". See DESIGN.md section 2.
type PConfig struct {
	// Capacity is the base station's total bandwidth in BU (paper: 40).
	Capacity float64
	// Theta0 is the admission threshold of an empty cell. Negative values
	// make an idle FACS-P more permissive than FACS.
	Theta0 float64
	// Gain scales how quickly the threshold rises with on-going load.
	Gain float64
	// RTWeight weights real-time (RTC) bandwidth in the on-going load;
	// real-time connections are the ones whose QoS degrades hardest on
	// congestion, so they count more.
	RTWeight float64
	// NRTWeight weights non-real-time (NRTC) bandwidth.
	NRTWeight float64
	// HandoffThreshold is the (fixed, low) threshold applied to handoff
	// requests of on-going calls; they have priority over new calls and
	// are normally limited only by physical capacity.
	HandoffThreshold float64
	// PriorityStep lowers the effective threshold per level of requesting-
	// connection priority (req.Priority). The paper lists requesting-
	// connection priority as future work; 0 disables it.
	PriorityStep float64
	// Defuzzifier overrides the engines' defuzzifier (default Centroid).
	Defuzzifier fuzzy.Defuzzifier
	// Samples overrides the defuzzification integration resolution.
	Samples int
	// SurfaceResolution, when positive, compiles FLC1 and FLC2 into
	// precomputed decision surfaces (fuzzy.Surface) with this many base
	// ticks per input axis; Admit then answers by multilinear interpolation
	// instead of a full Mamdani pass. See Config.SurfaceResolution.
	SurfaceResolution int
}

// WithSurfaceCache returns a copy of the config with the decision-surface
// cache enabled at the given per-axis resolution; a non-positive resolution
// selects DefaultSurfaceResolution.
func (c PConfig) WithSurfaceCache(resolution int) PConfig {
	if resolution <= 0 {
		resolution = DefaultSurfaceResolution
	}
	c.SurfaceResolution = resolution
	return c
}

// DefaultPConfig returns the FACS-P configuration used for the paper's
// figures, calibrated so the FACS-P/FACS crossover of Fig. 10 falls near
// 25 requesting connections (see EXPERIMENTS.md).
func DefaultPConfig() PConfig {
	return PConfig{
		Capacity:         CounterMax,
		Theta0:           -0.40,
		Gain:             0.90,
		RTWeight:         1.15,
		NRTWeight:        0.85,
		HandoffThreshold: ARMin, // capacity-limited only: full priority
		PriorityStep:     0,
		Samples:          fuzzy.DefaultSamples,
	}
}

func (c PConfig) validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("core: capacity %v must be positive", c.Capacity)
	}
	if c.Theta0 < ARMin || c.Theta0 > ARMax {
		return fmt.Errorf("core: theta0 %v outside A/R universe [%v, %v]", c.Theta0, ARMin, ARMax)
	}
	if c.HandoffThreshold < ARMin || c.HandoffThreshold > ARMax {
		return fmt.Errorf("core: handoff threshold %v outside A/R universe", c.HandoffThreshold)
	}
	if c.Gain < 0 {
		return fmt.Errorf("core: gain %v must be non-negative", c.Gain)
	}
	if c.RTWeight < 0 || c.NRTWeight < 0 {
		return fmt.Errorf("core: counter weights must be non-negative (rt=%v, nrt=%v)", c.RTWeight, c.NRTWeight)
	}
	if c.PriorityStep < 0 {
		return fmt.Errorf("core: priority step %v must be non-negative", c.PriorityStep)
	}
	if err := ValidateSurfaceResolution(c.SurfaceResolution); err != nil {
		return err
	}
	return nil
}

// FACSP is the paper's proposed system: FACS extended with the priority of
// on-going connections. It implements cac.Controller and is safe for
// concurrent use.
type FACSP struct {
	flc1 *fuzzy.Engine
	flc2 *fuzzy.Engine
	// surf1 and surf2 are the precomputed decision surfaces standing in for
	// flc1/flc2 when cfg.SurfaceResolution > 0; nil means exact inference.
	surf1 *fuzzy.Surface
	surf2 *fuzzy.Surface
	cfg   PConfig

	mu   sync.Mutex
	rtc  float64 // BU held by on-going real-time connections
	nrtc float64 // BU held by on-going non-real-time connections
}

var (
	_ cac.Controller = (*FACSP)(nil)
	_ cac.Named      = (*FACSP)(nil)
)

// NewFACSP builds a FACS-P controller.
func NewFACSP(cfg PConfig) (*FACSP, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	flc1, flc2, err := flcPair(cfg.Samples, cfg.Defuzzifier)
	if err != nil {
		return nil, err
	}
	f := &FACSP{flc1: flc1, flc2: flc2, cfg: cfg}
	if cfg.SurfaceResolution > 0 {
		f.surf1, f.surf2, err = surfacePair(flc1, flc2, cfg.SurfaceResolution, cfg.Samples, cfg.Defuzzifier)
		if err != nil {
			return nil, fmt.Errorf("core: compiling decision surfaces: %w", err)
		}
	}
	return f, nil
}

// SchemeName implements cac.Named.
func (f *FACSP) SchemeName() string { return "FACS-P" }

// Capacity implements cac.Controller.
func (f *FACSP) Capacity() float64 { return f.cfg.Capacity }

// Occupancy implements cac.Controller: total BU held across both counters.
func (f *FACSP) Occupancy() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rtc + f.nrtc
}

// Counters returns the differentiated-service counters: bandwidth units
// held by on-going real-time (RTC) and non-real-time (NRTC) connections.
func (f *FACSP) Counters() (rtc, nrtc float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rtc, f.nrtc
}

// Evaluate runs the two-stage inference for a request against explicit
// counter values, without reserving anything. It is the pure decision
// function; Admit wraps it with bookkeeping.
func (f *FACSP) Evaluate(req cac.Request, rtcBU, nrtcBU float64) (Decision, error) {
	if err := req.Validate(); err != nil {
		return Decision{}, err
	}
	// The Cs input sees the combined occupancy, scaled into the paper's
	// 0-40 universe.
	cs := (rtcBU + nrtcBU) * CounterMax / f.cfg.Capacity
	cv, score, outcome, err := inferScore(f.flc1, f.flc2, f.surf1, f.surf2,
		req.Speed, req.Angle, req.Bandwidth, cs)
	if err != nil {
		return Decision{}, err
	}

	// Recompute the threshold against the supplied counters rather than
	// the live ones so Evaluate stays pure.
	var theta float64
	if req.Handoff {
		theta = f.cfg.HandoffThreshold
	} else {
		ongoing := (f.cfg.RTWeight*rtcBU + f.cfg.NRTWeight*nrtcBU) / f.cfg.Capacity
		theta = f.cfg.Theta0 + f.cfg.Gain*ongoing - f.cfg.PriorityStep*float64(req.Priority)
		if theta > ARMax {
			theta = ARMax
		}
		if theta < ARMin {
			theta = ARMin
		}
	}

	d := Decision{
		Decision: cac.Decision{
			Score:   score,
			Outcome: outcome,
		},
		Cv:        cv,
		Threshold: theta,
	}
	d.Accept = score > theta
	return d, nil
}

// Admit implements cac.Controller. Handoff requests carry the priority of
// on-going connections: they are admitted whenever physical capacity
// allows (subject to the configured HandoffThreshold); new requests face
// the adaptive threshold.
func (f *FACSP) Admit(req cac.Request) cac.Decision {
	f.mu.Lock()
	defer f.mu.Unlock()

	d, err := f.Evaluate(req, f.rtc, f.nrtc)
	if err != nil {
		return cac.Decision{Accept: false, Score: ARMin, Outcome: "error: " + err.Error(), Occupancy: f.rtc + f.nrtc}
	}
	if d.Accept && f.rtc+f.nrtc+req.Bandwidth > f.cfg.Capacity {
		d.Accept = false
		d.Outcome = "capacity"
	}
	if d.Accept {
		if req.RealTime {
			f.rtc += req.Bandwidth
		} else {
			f.nrtc += req.Bandwidth
		}
	}
	d.Occupancy = f.rtc + f.nrtc
	return d.Decision
}

// Release implements cac.Controller, crediting the counter selected by the
// differentiated-service classification of the request.
func (f *FACSP) Release(req cac.Request) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	counter := &f.nrtc
	name := "NRTC"
	if req.RealTime {
		counter = &f.rtc
		name = "RTC"
	}
	if req.Bandwidth > *counter+1e-9 {
		return fmt.Errorf("core: FACS-P release of %v BU exceeds %s occupancy %v", req.Bandwidth, name, *counter)
	}
	*counter -= req.Bandwidth
	if *counter < 0 {
		*counter = 0
	}
	return nil
}

// Reset clears both counters, returning the controller to an empty cell.
func (f *FACSP) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rtc = 0
	f.nrtc = 0
}
