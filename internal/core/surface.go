package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"facsp/internal/fuzzy"
	"facsp/internal/metrics"
)

// DefaultSurfaceResolution is the per-axis base resolution used when a
// decision-surface cache is enabled without an explicit resolution (see
// Config.SurfaceResolution and PConfig.SurfaceResolution).
const DefaultSurfaceResolution = fuzzy.DefaultSurfaceResolution

// ValidateSurfaceResolution is the single validation rule for a per-axis
// decision-surface resolution, shared by Config, PConfig, the experiment
// options and the command-line flags: 0 selects exact inference, anything
// else must be a grid of at least 2 ticks per axis.
func ValidateSurfaceResolution(resolution int) error {
	if resolution < 0 || resolution == 1 {
		return fmt.Errorf("core: surface resolution %d must be 0 (exact) or >= 2", resolution)
	}
	return nil
}

// surfaceKey identifies one shareable compiled surface. The paper's FLC1
// and FLC2 are static rule bases, so two controllers with the same
// resolution, integration density and defuzzifier value produce
// bit-identical surfaces; compiling once per process and sharing the
// immutable result is what keeps per-cell controller construction cheap in
// the experiment runner (thousands of controllers per sweep).
type surfaceKey struct {
	engine     string
	resolution int
	samples    int
	// defuzz is the configured defuzzifier value (nil = default Centroid).
	// Only comparable defuzzifiers are cached — value equality must imply
	// behavioural equality, which holds for the stateless defuzzifiers in
	// internal/fuzzy.
	defuzz fuzzy.Defuzzifier
}

var surfaceCache = struct {
	mu sync.Mutex
	m  map[surfaceKey]*surfaceEntry
}{m: make(map[surfaceKey]*surfaceEntry)}

// surfaceCacheHits / surfaceCacheMisses count compileSurface lookups that
// found (or had to create) a shared surface entry; a miss is one real
// surface compilation per process. Exposed as process-wide scalar
// families in the /metrics exposition.
var surfaceCacheHits, surfaceCacheMisses atomic.Uint64

func init() {
	metrics.RegisterScalar("facs_surface_cache_hits_total",
		"Decision-surface compilations served from the shared process-wide cache.",
		surfaceCacheHits.Load)
	metrics.RegisterScalar("facs_surface_cache_misses_total",
		"Decision-surface compilations that could not be shared (first use per key, or uncacheable defuzzifier).",
		surfaceCacheMisses.Load)
}

// SurfaceCacheCounters reports the shared surface cache's hit and miss
// counts since process start.
func SurfaceCacheCounters() (hits, misses uint64) {
	return surfaceCacheHits.Load(), surfaceCacheMisses.Load()
}

type surfaceEntry struct {
	once sync.Once
	s    *fuzzy.Surface
	err  error
}

// compileSurface compiles engine's decision surface at the given per-axis
// resolution. Compilations are shared through the process-wide cache keyed
// by defuzzifier value; defuzzifiers of non-comparable types cannot be
// keyed and compile privately.
func compileSurface(e *fuzzy.Engine, resolution, samples int, defuzz fuzzy.Defuzzifier) (*fuzzy.Surface, error) {
	if defuzz != nil && !reflect.TypeOf(defuzz).Comparable() {
		surfaceCacheMisses.Add(1)
		return fuzzy.NewSurface(e, resolution)
	}
	key := surfaceKey{engine: e.Name(), resolution: resolution, samples: samples, defuzz: defuzz}
	surfaceCache.mu.Lock()
	ent, ok := surfaceCache.m[key]
	if !ok {
		ent = &surfaceEntry{}
		surfaceCache.m[key] = ent
	}
	surfaceCache.mu.Unlock()
	if ok {
		surfaceCacheHits.Add(1)
	} else {
		surfaceCacheMisses.Add(1)
	}
	ent.once.Do(func() { ent.s, ent.err = fuzzy.NewSurface(e, resolution) })
	return ent.s, ent.err
}

// inferScore runs the FLC1 -> FLC2 pipeline for one request, exact or
// surface-backed per stage, and returns the correction value, the crisp A/R
// score, and the soft outcome label. The exact path labels the outcome with
// the most-activated rule consequent (the inference trace); the surface
// path, which has no trace, labels it with the output term dominant at the
// interpolated score — identical wherever the score is unambiguous.
func inferScore(flc1, flc2 *fuzzy.Engine, surf1, surf2 *fuzzy.Surface,
	speed, angle, bandwidth, cs float64) (cv, score float64, outcome string, err error) {

	if surf1 != nil {
		cv, err = surf1.Infer(speed, angle, bandwidth)
	} else {
		cv, err = flc1.Infer(speed, angle, bandwidth)
	}
	if err != nil {
		return 0, 0, "", fmt.Errorf("core: FLC1: %w", err)
	}

	if surf2 != nil {
		score, err = surf2.Infer(cv, bandwidth, cs)
		if err != nil {
			return 0, 0, "", fmt.Errorf("core: FLC2: %w", err)
		}
		out := surf2.Output()
		if ti := out.DominantTerm(score); ti >= 0 {
			outcome = out.Terms[ti].Name
		}
		return cv, score, outcome, nil
	}
	score, best, err := flc2.InferBest(cv, bandwidth, cs)
	if err != nil {
		return 0, 0, "", fmt.Errorf("core: FLC2: %w", err)
	}
	return cv, score, flc2.Output().Terms[best].Name, nil
}

// surfacePair compiles the FLC1/FLC2 surfaces for a controller whose config
// requested SurfaceResolution > 0. The two compile concurrently; an FLC1
// error is reported ahead of an FLC2 error.
func surfacePair(flc1, flc2 *fuzzy.Engine, resolution, samples int, defuzz fuzzy.Defuzzifier) (s1, s2 *fuzzy.Surface, err error) {
	if samples <= 0 {
		samples = fuzzy.DefaultSamples
	}
	var err2 error
	done := make(chan struct{})
	go func() {
		defer close(done)
		s2, err2 = compileSurface(flc2, resolution, samples, defuzz)
	}()
	s1, err = compileSurface(flc1, resolution, samples, defuzz)
	<-done
	if err != nil {
		return nil, nil, err
	}
	if err2 != nil {
		return nil, nil, err2
	}
	return s1, s2, nil
}
