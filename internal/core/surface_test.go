package core

import (
	"math"
	"testing"

	"facsp/internal/cac"
	"facsp/internal/fuzzy"
	"facsp/internal/rng"
)

// Equivalence tolerances of the default-resolution surfaces, measured over
// dense randomized sweeps of the full input universes and stated here with
// ~20% headroom. FLC1's output universe is [0,1]; FLC2's is [-1,1]. The
// error shrinks with resolution (see TestSurfaceConvergesWithResolution in
// internal/fuzzy); these document the default trade.
const (
	flc1Tolerance = 0.11
	flc2Tolerance = 0.03
)

func defaultSurfaces(t testing.TB) (flc1, flc2 *fuzzy.Engine, s1, s2 *fuzzy.Surface) {
	t.Helper()
	flc1, err := NewFLC1()
	if err != nil {
		t.Fatal(err)
	}
	flc2, err = NewFLC2()
	if err != nil {
		t.Fatal(err)
	}
	// Compile through the shared cache, like the controllers do, so the
	// cost is paid once per test process.
	s1, err = compileSurface(flc1, DefaultSurfaceResolution, fuzzy.DefaultSamples, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err = compileSurface(flc2, DefaultSurfaceResolution, fuzzy.DefaultSamples, nil)
	if err != nil {
		t.Fatal(err)
	}
	return flc1, flc2, s1, s2
}

func TestFLC1SurfaceEquivalenceTable(t *testing.T) {
	flc1, _, s1, _ := defaultSurfaces(t)
	// The paper's own anchor points (term peaks and crossovers) plus the
	// class bandwidths.
	for _, sp := range []float64{0, 30, 60, 90, 120} {
		for _, an := range []float64{-180, -90, -45, 0, 45, 90, 180} {
			for _, sr := range []float64{TextBU, VoiceBU, VideoBU} {
				want, err := flc1.Infer(sp, an, sr)
				if err != nil {
					t.Fatalf("FLC1(%v, %v, %v): %v", sp, an, sr, err)
				}
				got, err := s1.Infer(sp, an, sr)
				if err != nil {
					t.Fatalf("surface(%v, %v, %v): %v", sp, an, sr, err)
				}
				if d := math.Abs(got - want); d > flc1Tolerance {
					t.Errorf("FLC1 surface at (%v, %v, %v): |%v - %v| = %v > %v",
						sp, an, sr, got, want, d, flc1Tolerance)
				}
			}
		}
	}
}

func TestFLC1SurfaceEquivalenceRandomized(t *testing.T) {
	flc1, _, s1, _ := defaultSurfaces(t)
	src := rng.New(0xF1C1)
	worst := 0.0
	for i := 0; i < 20000; i++ {
		sp := src.Uniform(SpeedMin, SpeedMax)
		an := src.Uniform(AngleMin, AngleMax)
		sr := src.Uniform(ServiceMin, ServiceMax)
		want, err := flc1.Infer(sp, an, sr)
		if err != nil {
			t.Fatalf("FLC1(%v, %v, %v): %v", sp, an, sr, err)
		}
		got, err := s1.Infer(sp, an, sr)
		if err != nil {
			t.Fatalf("surface(%v, %v, %v): %v", sp, an, sr, err)
		}
		if d := math.Abs(got - want); d > worst {
			worst = d
			if d > flc1Tolerance {
				t.Fatalf("FLC1 surface at (%v, %v, %v): error %v > %v", sp, an, sr, d, flc1Tolerance)
			}
		}
	}
	t.Logf("FLC1 max interpolation error over 20k samples: %.5f (tolerance %v)", worst, flc1Tolerance)
}

func TestFLC2SurfaceEquivalenceRandomized(t *testing.T) {
	_, flc2, _, s2 := defaultSurfaces(t)
	src := rng.New(0xF1C2)
	worst := 0.0
	for i := 0; i < 20000; i++ {
		cv := src.Uniform(CvMin, CvMax)
		rq := src.Uniform(RequestMin, RequestMax)
		cs := src.Uniform(CounterMin, CounterMax)
		want, err := flc2.Infer(cv, rq, cs)
		if err != nil {
			t.Fatalf("FLC2(%v, %v, %v): %v", cv, rq, cs, err)
		}
		got, err := s2.Infer(cv, rq, cs)
		if err != nil {
			t.Fatalf("surface(%v, %v, %v): %v", cv, rq, cs, err)
		}
		if d := math.Abs(got - want); d > worst {
			worst = d
			if d > flc2Tolerance {
				t.Fatalf("FLC2 surface at (%v, %v, %v): error %v > %v", cv, rq, cs, d, flc2Tolerance)
			}
		}
	}
	t.Logf("FLC2 max interpolation error over 20k samples: %.5f (tolerance %v)", worst, flc2Tolerance)
}

func TestSurfaceControllerDecisionsTrackExact(t *testing.T) {
	// End to end: a surface-cached FACS-P must agree with the exact
	// controller on the overwhelming majority of randomized decisions, and
	// its scores must stay within the combined interpolation tolerance.
	exact, err := NewFACSP(DefaultPConfig())
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewFACSP(DefaultPConfig().WithSurfaceCache(0))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	agree, total := 0, 4000
	for i := 0; i < total; i++ {
		req := cac.Request{
			Speed:     src.Uniform(SpeedMin, SpeedMax),
			Angle:     src.Uniform(AngleMin, AngleMax),
			Bandwidth: []float64{TextBU, VoiceBU, VideoBU}[src.Intn(3)],
			RealTime:  src.Bool(0.3),
			Handoff:   src.Bool(0.2),
		}
		rtc := src.Uniform(0, CounterMax/2)
		nrtc := src.Uniform(0, CounterMax/2)
		de, err := exact.Evaluate(req, rtc, nrtc)
		if err != nil {
			t.Fatal(err)
		}
		dc, err := cached.Evaluate(req, rtc, nrtc)
		if err != nil {
			t.Fatal(err)
		}
		if de.Accept == dc.Accept {
			agree++
		}
		// FLC1's cv error propagates through FLC2 (Lipschitz <= ~2 on the
		// Cv axis) and adds to FLC2's own interpolation error.
		if d := math.Abs(de.Score - dc.Score); d > 2*flc1Tolerance+flc2Tolerance {
			t.Errorf("score diverged by %v for %+v (exact %v, cached %v)", d, req, de.Score, dc.Score)
		}
	}
	if pct := 100 * float64(agree) / float64(total); pct < 95 {
		t.Errorf("surface-cached controller agreed on only %.1f%% of decisions", pct)
	}
}

// uncacheableDefuzz has a non-comparable type, so it cannot be used as a
// cache key and must compile privately.
type uncacheableDefuzz struct{ pad []int }

func (uncacheableDefuzz) Defuzz(out fuzzy.Variable, strength []float64, samples int) (float64, error) {
	return fuzzy.Centroid{}.Defuzz(out, strength, samples)
}

func TestSurfaceCacheSharing(t *testing.T) {
	a, err := compileSurface(mustFLC1(t), DefaultSurfaceResolution, fuzzy.DefaultSamples, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compileSurface(mustFLC1(t), DefaultSurfaceResolution, fuzzy.DefaultSamples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("two default-config FLC1 compilations did not share one surface")
	}
	// Comparable custom defuzzifiers share a per-value compilation distinct
	// from the default one (the ablation sweeps depend on this: without it
	// every per-cell controller would recompile ~70k inferences).
	lowRes := 5 // keep the extra compilations cheap
	h1, err := compileSurface(mustFLC1(t), lowRes, fuzzy.DefaultSamples, fuzzy.Height{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := compileSurface(mustFLC1(t), lowRes, fuzzy.DefaultSamples, fuzzy.Height{})
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("two Height-defuzzifier compilations did not share one surface")
	}
	if h1 == a {
		t.Error("Height-defuzzifier compilation shared the default-defuzzifier surface")
	}
	// Non-comparable defuzzifiers cannot be keyed: private compilations.
	c1, err := compileSurface(mustFLC1(t), lowRes, fuzzy.DefaultSamples, uncacheableDefuzz{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := compileSurface(mustFLC1(t), lowRes, fuzzy.DefaultSamples, uncacheableDefuzz{})
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Error("non-comparable defuzzifier compilations unexpectedly shared a surface")
	}
}

func mustFLC1(t testing.TB) *fuzzy.Engine {
	t.Helper()
	e, err := NewFLC1()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSurfaceResolutionValidation(t *testing.T) {
	for _, res := range []int{-1, 1} {
		cfg := DefaultConfig()
		cfg.SurfaceResolution = res
		if _, err := NewFACS(cfg); err == nil {
			t.Errorf("FACS surface resolution %d accepted", res)
		}
		pcfg := DefaultPConfig()
		pcfg.SurfaceResolution = res
		if _, err := NewFACSP(pcfg); err == nil {
			t.Errorf("FACS-P surface resolution %d accepted", res)
		}
	}
	if got := DefaultConfig().WithSurfaceCache(0).SurfaceResolution; got != DefaultSurfaceResolution {
		t.Errorf("WithSurfaceCache(0) resolution = %d, want %d", got, DefaultSurfaceResolution)
	}
	if got := DefaultPConfig().WithSurfaceCache(65).SurfaceResolution; got != 65 {
		t.Errorf("WithSurfaceCache(65) resolution = %d", got)
	}
}

// surfaceScoreTol documents the end-to-end FACS-P score tolerance of each
// surface resolution versus exact inference (the worst error measured over
// the lattice and the off-lattice points below, stated with headroom; the
// ARMin..ARMax score axis spans 2.0). Resolution 33's bound is the
// 2*flc1Tolerance+flc2Tolerance composite of
// TestSurfaceControllerDecisionsTrackExact.
var surfaceScoreTol = map[int]float64{
	9:  0.30,                            // measured 0.143 lattice, 0.159 off-lattice
	17: 0.25,                            // measured 0.119 lattice, 0.132 off-lattice
	33: 2*flc1Tolerance + flc2Tolerance, // measured 0.008 lattice, 0.067 off-lattice
	65: 0.05,                            // measured 0.005 lattice, 0.034 off-lattice
	0:  0,                               // exact inference: identical by construction
}

// offLatticePoints is how many seeded uniform requests
// TestSurfaceResolutionMatchesExact draws per resolution.
const offLatticePoints = 50000

// TestSurfaceResolutionMatchesExact drives a dense input lattice and
// seeded uniform off-lattice points through a FACS-P at each
// PConfig.SurfaceResolution and through exact inference, asserting the
// accuracy contract: scores within the resolution's documented tolerance,
// and identical decisions whenever the exact score is not within tolerance
// of the threshold. The lattice steps land mostly where a surface is exact
// (its own grid points); the off-lattice points draw speed, angle, class,
// occupancy and its real-time/non-real-time split uniformly, which is
// where the interpolation error is.
func TestSurfaceResolutionMatchesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("dense lattice")
	}
	exact, err := NewFACSP(DefaultPConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []int{9, 17, 33, 65, 0} {
		pc := DefaultPConfig()
		pc.SurfaceResolution = res
		cached, err := NewFACSP(pc)
		if err != nil {
			t.Fatal(err)
		}
		tol := surfaceScoreTol[res]
		disagreements := 0
		// check compares one request at the given counters and returns the
		// score error.
		check := func(req cac.Request, rtc, nrtc float64) float64 {
			de, err := exact.Evaluate(req, rtc, nrtc)
			if err != nil {
				t.Fatal(err)
			}
			dc, err := cached.Evaluate(req, rtc, nrtc)
			if err != nil {
				t.Fatal(err)
			}
			d := math.Abs(de.Score - dc.Score)
			if d > tol {
				t.Fatalf("res %d at (%v,%v,%v,rtc %v,nrtc %v): score %v vs exact %v, error %v > %v",
					res, req.Speed, req.Angle, req.Bandwidth, rtc, nrtc, dc.Score, de.Score, d, tol)
			}
			if de.Accept != dc.Accept {
				disagreements++
				if math.Abs(de.Score-de.Threshold) > tol {
					t.Fatalf("res %d at (%v,%v,%v,rtc %v,nrtc %v): decision flipped with exact score %v a full %v from threshold %v",
						res, req.Speed, req.Angle, req.Bandwidth, rtc, nrtc, de.Score, math.Abs(de.Score-de.Threshold), de.Threshold)
				}
			}
			return d
		}
		worst := 0.0
		for sp := 0.0; sp <= SpeedMax; sp += 7.5 {
			for an := 0.0; an <= AngleMax; an += 11.25 {
				for _, bw := range []float64{TextBU, VoiceBU, VideoBU} {
					for _, occ := range []float64{0, 0.3, 0.6, 0.9} {
						req := cac.Request{ID: 1, Speed: sp, Angle: an, Bandwidth: bw, RealTime: true}
						worst = math.Max(worst, check(req, occ*CounterMax, 0))
					}
				}
			}
		}
		src := rng.New(1) // the same points at every resolution
		worstOff := 0.0
		for i := 0; i < offLatticePoints; i++ {
			bw := []float64{TextBU, VoiceBU, VideoBU}[src.Intn(3)]
			req := cac.Request{
				ID:        1,
				Speed:     src.Uniform(SpeedMin, SpeedMax),
				Angle:     src.Uniform(AngleMin, AngleMax),
				Bandwidth: bw,
				RealTime:  bw != TextBU,
			}
			occ := src.Uniform(0, pc.Capacity)
			rtc := occ * src.Float64()
			worstOff = math.Max(worstOff, check(req, rtc, occ-rtc))
		}
		t.Logf("res %2d: max score error %.4f lattice, %.4f off-lattice (tolerance %v), %d near-threshold decision flips",
			res, worst, worstOff, tol, disagreements)
		if res == 0 && (worst != 0 || worstOff != 0 || disagreements != 0) {
			t.Errorf("exact inference deviated: worst %v lattice, %v off-lattice, %d flips", worst, worstOff, disagreements)
		}
	}
}
