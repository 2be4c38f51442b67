// Package perf is the repository's performance harness: a registry of
// named benchmark specs covering the admission hot path and the
// figure/scenario sweeps, a measurement engine that turns a spec into
// machine-readable numbers (ns/op, allocs/op, simulated calls per
// second), and the regression gate cmd/facs-bench runs in CI.
//
// The same specs back both entry points: `go test -bench .` runs them
// through BenchSpec (bench_test.go at the repository root), and
// cmd/facs-bench runs them through Measure to emit BENCH.json and diff it
// against the committed BENCH_baseline.json. Because there is exactly one
// registry, the CI smoke benchmark and the regression gate cannot drift
// apart.
package perf

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"sync/atomic"

	"facsp/internal/baseline"
	"facsp/internal/cac"
	"facsp/internal/cellsim"
	"facsp/internal/core"
	"facsp/internal/des"
	"facsp/internal/experiment"
	"facsp/internal/fuzzy"
	"facsp/internal/optimal"
	"facsp/internal/scenario"
)

// Body runs n iterations of a benchmark workload. simCalls reports the
// number of simulated connection requests driven across the n iterations
// (network-wide, all schemes), or 0 for micro-benchmarks that do not
// simulate traffic.
type Body func(n int) (simCalls int64, err error)

// Spec is one named benchmark.
type Spec struct {
	// Name identifies the spec in reports and baselines, e.g.
	// "sweep/adapt-drops/surface".
	Name string
	// Smoke marks the spec as part of the reduced CI suite.
	Smoke bool
	// New builds the benchmark body. It runs outside the timed region, so
	// expensive setup (engine construction, surface compilation) does not
	// pollute the per-op numbers.
	New func() (Body, error)
	// WallPaced marks a body whose per-op time is a scheduled wall-clock
	// span (open-loop serving runs); see Result.WallPaced for how the
	// gate treats it.
	WallPaced bool
	// Extra, when set, is called once after measurement and its metrics
	// attached to the result (Result.Extra) — the serving suite reports
	// admits/sec and latency percentiles this way. Never gated.
	Extra func() map[string]float64
}

// SweepConfig parameterises the sweep specs of the registry.
type SweepConfig struct {
	// Loads is the sweep x axis (default: the single heaviest paper load,
	// 100 requesting connections).
	Loads []int
	// Replications is the number of seeds per load point (default 1).
	Replications int
	// Workers bounds the sweep worker pool (default 1, for stable ns/op).
	Workers int
	// Surface is the decision-surface resolution of the "/surface" sweep
	// variants (default core.DefaultSurfaceResolution). Exact-inference
	// variants always run with 0.
	Surface int
}

// DefaultSweepConfig returns the reduced sweep used by the CI gate and
// the repository benchmarks: one replication of the heaviest paper load.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Loads:        []int{100},
		Replications: 1,
		Workers:      1,
		Surface:      core.DefaultSurfaceResolution,
	}
}

func (sc SweepConfig) withDefaults() SweepConfig {
	d := DefaultSweepConfig()
	if sc.Loads == nil {
		sc.Loads = d.Loads
	}
	if sc.Replications <= 0 {
		sc.Replications = d.Replications
	}
	if sc.Workers <= 0 {
		sc.Workers = d.Workers
	}
	if sc.Surface <= 0 {
		sc.Surface = d.Surface
	}
	return sc
}

func (sc SweepConfig) options(surface int) experiment.Options {
	return experiment.Options{
		Loads:             sc.Loads,
		Replications:      sc.Replications,
		Workers:           sc.Workers,
		SurfaceResolution: surface,
	}
}

// Specs returns the registry with the default sweep configuration.
func Specs() []Spec { return Registry(SweepConfig{}) }

// SmokeSpecs returns the reduced CI suite with the default sweep
// configuration.
func SmokeSpecs() []Spec {
	var out []Spec
	for _, s := range Specs() {
		if s.Smoke {
			out = append(out, s)
		}
	}
	return out
}

// Filter returns the specs whose names match the regular expression.
func Filter(specs []Spec, expr string) ([]Spec, error) {
	re, err := regexp.Compile(expr)
	if err != nil {
		return nil, fmt.Errorf("perf: bad filter %q: %w", expr, err)
	}
	var out []Spec
	for _, s := range specs {
		if re.MatchString(s.Name) {
			out = append(out, s)
		}
	}
	return out, nil
}

// mustFactory resolves a scheme factory for a registry-built sweep; the
// ids are static, so failure is a programming error.
func mustFactory(o experiment.Options, id string) experiment.AdmitterFactory {
	f, err := o.SchemeFactory(id)
	if err != nil {
		panic("perf: " + err.Error())
	}
	return f
}

// Registry returns every benchmark spec, sweeps parameterised by sc, in
// stable order: micro-benchmarks of the inference and admission hot
// paths, then one sweep spec per scheme x figure, then the scenario
// sweep. Spec names are the contract between BENCH_baseline.json, the CI
// gate and `go test -bench .`; renaming one invalidates baselines.
func Registry(sc SweepConfig) []Spec {
	sc = sc.withDefaults()
	exact := sc.options(0)
	surf := sc.options(sc.Surface)

	specs := []Spec{
		// One Mamdani inference per op: fuzzify, evaluate the printed rule
		// base (Table 1 / Table 2), defuzzify.
		{Name: "micro/flc1/exact", Smoke: true, New: flc1Exact},
		{Name: "micro/flc2/exact", Smoke: true, New: flc2Exact},
		// The same queries answered from the precomputed decision surface.
		{Name: "micro/flc1/surface", New: flc1Surface},
		{Name: "micro/flc2/surface", New: flc2Surface},
		// Compile both decision surfaces at the default resolution,
		// bypassing the process-wide cache: the start-up cost of a
		// surface-backed daemon or sweep.
		{Name: "micro/surface/compile", Smoke: true, New: surfaceCompile},
		// End-to-end Admit+Release per op, per controller.
		{Name: "micro/admit/facs-exact", New: admitFACS(0)},
		{Name: "micro/admit/facs-surface", New: admitFACS(sc.Surface)},
		{Name: "micro/admit/facsp-exact", Smoke: true, New: admitFACSP(0)},
		{Name: "micro/admit/facsp-surface", Smoke: true, New: admitFACSP(sc.Surface)},
		// The cost half of the centroid/height defuzzifier trade (the
		// ablation-defuzz figure studies the fidelity half).
		{Name: "micro/admit/facsp-height", New: admitFACSPHeight},
		{Name: "micro/admit/guard", New: admitGuard},
		// The computed optimum: the value-iteration threshold policy,
		// end-to-end Admit+Release — it must stay an allocation-free table
		// lookup (alloc_test.go gates allocs, this spec gates ns/op).
		{Name: "scheme/optimal", Smoke: true, New: admitOptimal},
		// Schedule and drain 128 typed events per op; allocation-free in
		// steady state.
		{Name: "micro/des/schedule", Smoke: true, New: desSchedule},
		// The wire codec alone: a serve-surface admit request and its reply,
		// each encoded and decoded once per op (0 allocs in steady state).
		{Name: "micro/wire/codec", Smoke: true, New: wireCodec},
	}

	// One reduced figure sweep per op, per scheme — the simulated-calls-
	// per-second columns of BENCH.json come from these.
	specs = append(specs,
		curveSpec("sweep/fig7/facs", false, singleCell, mustFactory(exact, "facs"), experiment.AcceptedPct, exact),
		curveSpec("sweep/fig7/scc", false, singleCell, mustFactory(exact, "scc"), experiment.AcceptedPct, exact),
		curveSpec("sweep/fig8/facsp", false, pinnedSpeed(60), mustFactory(exact, "facsp"), experiment.AcceptedPct, exact),
		curveSpec("sweep/fig9/facsp", false, pinnedAngle(50), mustFactory(exact, "facsp"), experiment.AcceptedPct, exact),
		curveSpec("sweep/fig10/facsp", true, homogeneous, mustFactory(exact, "facsp"), experiment.AcceptedPct, exact),
		curveSpec("sweep/fig10/facs", false, homogeneous, mustFactory(exact, "facs"), experiment.AcceptedPct, exact),
		curveSpec("sweep/drops/facsp", false, homogeneous, mustFactory(exact, "facsp"), experiment.DropPct, exact),
		adaptDropsSpec("sweep/adapt-drops", true, exact),
		adaptDropsSpec("sweep/adapt-drops/surface", true, surf),
		adaptRatioSpec("sweep/adapt-ratio", false, exact),
		scenarioSpec("sweep/scenario/flash-crowd", false, exact),
	)

	// The city suite: ONE ~1000-cell sharded simulation per op
	// (experiment.RunEvalCity), reported as simulated-calls/s. The worker
	// variants share one fixed 16-group partition, so their metrics are
	// bit-identical and only wall clock changes — the w1/w4/w8 column is a
	// direct read of the sharded engine's scaling. The smoke variant runs
	// the embedded 200-cell metro-city, sized for the CI gate.
	specs = append(specs,
		citySmokeSpec("city/metro/guard", true, exact),
		cityEvalSpec("city/eval/guard/w1", 1, exact),
		cityEvalSpec("city/eval/guard/w4", 4, exact),
		cityEvalSpec("city/eval/guard/w8", 8, exact),
		cityEvalSpec("city/eval/facsp/w4", 4, exact),
	)

	// The serving suite: the admission daemon measured over real loopback
	// TCP — a closed-loop round-trip cost spec and an open-loop
	// flash-crowd replay whose admits/sec and latency percentiles land in
	// Result.Extra.
	specs = append(specs,
		serverRoundtripSpec(),
		serverFlashCrowdSpec(),
	)
	return specs
}

// cityGroups is the fixed cell-group count of the city suite; every
// worker variant runs the identical partition.
const cityGroups = 16

// cityLoad is the per-unit-load request count of the city specs; each
// cell offers round(cityLoad x its band multiplier).
const cityLoad = 8

// cityBody runs one sharded city simulation per op over a pre-validated
// scenario, counting offered calls for the simcalls/s column.
func cityBody(s *scenario.Scenario, run experiment.CityRun, opts experiment.Options) Body {
	return func(n int) (int64, error) {
		var calls int64
		for i := 0; i < n; i++ {
			r := run
			r.Seed = uint64(i) + 1
			res, err := experiment.RunCity(s, r, opts)
			if err != nil {
				return 0, err
			}
			calls += int64(res.NetworkRequests)
		}
		return calls, nil
	}
}

// cityEvalSpec measures the ~1000-cell evaluation city at a given worker
// count. The scheme id is embedded in the spec name's third segment.
func cityEvalSpec(name string, workers int, opts experiment.Options) Spec {
	return Spec{Name: name, New: func() (Body, error) {
		s, err := scenario.GenerateCity(scenario.EvalCityParams())
		if err != nil {
			return nil, err
		}
		scheme := strings.Split(name, "/")[2]
		run := experiment.CityRun{
			Scheme: scheme,
			Load:   cityLoad,
			Shard:  cellsim.ShardOptions{Groups: cityGroups, Workers: workers},
		}
		return cityBody(s, run, opts), nil
	}}
}

// citySmokeSpec is the reduced CI variant: the embedded metro-city
// scenario (about 200 cells) on one worker. The worker count is pinned
// because the sharded engine's allocations scale with it, so leaving it to
// GOMAXPROCS would make allocs/op depend on the host.
func citySmokeSpec(name string, smoke bool, opts experiment.Options) Spec {
	return Spec{Name: name, Smoke: smoke, New: func() (Body, error) {
		s, err := scenario.Load("metro-city")
		if err != nil {
			return nil, err
		}
		run := experiment.CityRun{
			Scheme: "guard",
			Load:   cityLoad,
			Shard:  cellsim.ShardOptions{Groups: cityGroups, Workers: 1},
		}
		return cityBody(s, run, opts), nil
	}}
}

// --- micro bodies ---

func flc1Exact() (Body, error) {
	e, err := core.NewFLC1()
	if err != nil {
		return nil, err
	}
	return func(n int) (int64, error) {
		for i := 0; i < n; i++ {
			if _, err := e.Infer(72.5, 33, 5); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}, nil
}

func flc2Exact() (Body, error) {
	e, err := core.NewFLC2()
	if err != nil {
		return nil, err
	}
	return func(n int) (int64, error) {
		for i := 0; i < n; i++ {
			if _, err := e.Infer(0.7, 5, 22); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}, nil
}

func flc1Surface() (Body, error) {
	e, err := core.NewFLC1()
	if err != nil {
		return nil, err
	}
	s, err := fuzzy.NewSurface(e, fuzzy.DefaultSurfaceResolution)
	if err != nil {
		return nil, err
	}
	return func(n int) (int64, error) {
		for i := 0; i < n; i++ {
			if _, err := s.Infer(72.5, 33, 5); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}, nil
}

func flc2Surface() (Body, error) {
	e, err := core.NewFLC2()
	if err != nil {
		return nil, err
	}
	s, err := fuzzy.NewSurface(e, fuzzy.DefaultSurfaceResolution)
	if err != nil {
		return nil, err
	}
	return func(n int) (int64, error) {
		for i := 0; i < n; i++ {
			if _, err := s.Infer(0.7, 5, 22); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}, nil
}

func surfaceCompile() (Body, error) {
	flc1, err := core.NewFLC1()
	if err != nil {
		return nil, err
	}
	flc2, err := core.NewFLC2()
	if err != nil {
		return nil, err
	}
	return func(n int) (int64, error) {
		for i := 0; i < n; i++ {
			for _, e := range [...]*fuzzy.Engine{flc1, flc2} {
				if _, err := fuzzy.NewSurface(e, fuzzy.DefaultSurfaceResolution); err != nil {
					return 0, err
				}
			}
		}
		return 0, nil
	}, nil
}

// admitLoop drives the end-to-end Admit+Release hot path with the
// micro-benchmark request: a voice call at 60 km/h, 15 degrees off its
// base station.
func admitLoop(ctrl cac.Controller) Body {
	req := cac.Request{ID: 1, Speed: 60, Angle: 15, Bandwidth: 5, RealTime: true}
	return func(n int) (int64, error) {
		for i := 0; i < n; i++ {
			if d := ctrl.Admit(req); d.Accept {
				if err := ctrl.Release(req); err != nil {
					return 0, err
				}
			}
		}
		return 0, nil
	}
}

func admitFACS(surface int) func() (Body, error) {
	return func() (Body, error) {
		cfg := core.DefaultConfig()
		cfg.SurfaceResolution = surface
		ctrl, err := core.NewFACS(cfg)
		if err != nil {
			return nil, err
		}
		return admitLoop(ctrl), nil
	}
}

func admitFACSP(surface int) func() (Body, error) {
	return func() (Body, error) {
		cfg := core.DefaultPConfig()
		cfg.SurfaceResolution = surface
		ctrl, err := core.NewFACSP(cfg)
		if err != nil {
			return nil, err
		}
		return admitLoop(ctrl), nil
	}
}

// admitFACSPHeight measures the FACS-P admission path with the cheap
// height defuzzifier instead of the centroid default, keeping the
// defuzzifier cost trade-off trackable.
func admitFACSPHeight() (Body, error) {
	cfg := core.DefaultPConfig()
	cfg.Defuzzifier = fuzzy.Height{}
	ctrl, err := core.NewFACSP(cfg)
	if err != nil {
		return nil, err
	}
	return admitLoop(ctrl), nil
}

func admitGuard() (Body, error) {
	ctrl, err := baseline.NewGuardChannel(core.CounterMax, experiment.GuardBand)
	if err != nil {
		return nil, err
	}
	return admitLoop(ctrl), nil
}

// admitOptimal measures the value-iteration threshold policy's admission
// path; ForCapacity reuses the cached policy, so the solve cost stays in
// setup.
func admitOptimal() (Body, error) {
	ctrl, err := optimal.ForCapacity(core.CounterMax)
	if err != nil {
		return nil, err
	}
	return admitLoop(ctrl), nil
}

// desHandler drains typed events without doing work, so the spec times
// pure queue overhead.
type desHandler struct{}

func (desHandler) RunOp(float64, des.Op) {}

func desSchedule() (Body, error) {
	var s des.Sim
	s.SetHandler(desHandler{})
	arg := new(int)
	return func(n int) (int64, error) {
		for i := 0; i < n; i++ {
			s.Reset()
			at := 0.0
			for j := 0; j < 128; j++ {
				// A deterministic quasi-random schedule exercises the heap
				// without consulting an RNG inside the timed loop. The
				// multiplier stays within 32-bit int range (j < 128).
				at += float64((j*40503)%1000) / 1000
				if _, err := s.AtOp(at, des.Op{Code: j, Arg: arg}); err != nil {
					return 0, err
				}
			}
			s.Run(0)
		}
		return 0, nil
	}, nil
}

// --- sweep bodies ---

func singleCell(load int, seed uint64) cellsim.Config {
	c := cellsim.DefaultConfig(load, seed)
	c.NeighborRequests = 0
	return c
}

func homogeneous(load int, seed uint64) cellsim.Config {
	return cellsim.DefaultConfig(load, seed)
}

func pinnedSpeed(kmh float64) experiment.ConfigFunc {
	return func(load int, seed uint64) cellsim.Config {
		c := singleCell(load, seed)
		c.Speed = cellsim.Fixed(kmh)
		return c
	}
}

func pinnedAngle(deg float64) experiment.ConfigFunc {
	return func(load int, seed uint64) cellsim.Config {
		c := singleCell(load, seed)
		c.Angle = cellsim.Fixed(deg)
		c.Static = true
		return c
	}
}

// countingMetric wraps a metric so every simulated run adds its
// network-wide offered calls to the counter; this is how the sweeps
// report simulated-calls-per-second without estimating workload sizes.
func countingMetric(m experiment.Metric, calls *atomic.Int64) experiment.Metric {
	return func(r cellsim.Result) float64 {
		calls.Add(int64(r.NetworkRequests))
		return m(r)
	}
}

// curveSpec runs one reduced sweep (scheme x figure workload) per op.
func curveSpec(name string, smoke bool, cfg experiment.ConfigFunc, factory experiment.AdmitterFactory, metric experiment.Metric, opts experiment.Options) Spec {
	return Spec{Name: name, Smoke: smoke, New: func() (Body, error) {
		return func(n int) (int64, error) {
			var calls atomic.Int64
			m := countingMetric(metric, &calls)
			for i := 0; i < n; i++ {
				o := opts
				o.BaseSeed = uint64(i)
				if _, err := experiment.RunCurve(name, cfg, factory, m, o); err != nil {
					return 0, err
				}
			}
			return calls.Load(), nil
		}, nil
	}}
}

// multiCurveSpec runs one full multi-scheme figure per op.
func multiCurveSpec(name string, smoke bool, opts experiment.Options, metric experiment.Metric, schemeIDs []string) Spec {
	return Spec{Name: name, Smoke: smoke, New: func() (Body, error) {
		factories := make([]experiment.AdmitterFactory, len(schemeIDs))
		for i, id := range schemeIDs {
			f, err := opts.SchemeFactory(id)
			if err != nil {
				return nil, err
			}
			factories[i] = f
		}
		return func(n int) (int64, error) {
			var calls atomic.Int64
			m := countingMetric(metric, &calls)
			for i := 0; i < n; i++ {
				o := opts
				o.BaseSeed = uint64(i)
				for _, f := range factories {
					if _, err := experiment.RunCurve(name, homogeneous, f, m, o); err != nil {
						return 0, err
					}
				}
			}
			return calls.Load(), nil
		}, nil
	}}
}

// adaptDropsSpec reproduces the adapt-drops head-to-head (adapt,
// adapt-fuzzy, FACS-P, guard-channel on dropped-call %) as one op — the
// end-to-end sweep the tentpole throughput target is measured on.
func adaptDropsSpec(name string, smoke bool, opts experiment.Options) Spec {
	return multiCurveSpec(name, smoke, opts, experiment.DropPct,
		[]string{"adapt", "adapt-fuzzy", "facsp", "guard"})
}

// adaptRatioSpec reproduces the adapt-ratio figure (degradation ratio of
// the adaptive schemes vs the guard channel) as one op.
func adaptRatioSpec(name string, smoke bool, opts experiment.Options) Spec {
	return multiCurveSpec(name, smoke, opts, experiment.BandwidthRatioPct,
		[]string{"adapt", "adapt-fuzzy", "guard"})
}

// scenarioSpec ranks every applicable scheme on the flash-crowd scenario
// once per op — the declarative-scenario path of the sweep engine.
func scenarioSpec(name string, smoke bool, opts experiment.Options) Spec {
	return Spec{Name: name, Smoke: smoke, New: func() (Body, error) {
		s, err := scenario.Load("flash-crowd")
		if err != nil {
			return nil, err
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
		cfg := experiment.ScenarioConfigFunc(s)
		var factories []experiment.AdmitterFactory
		for _, id := range experiment.SchemeIDs() {
			f, err := experiment.ScenarioSchemeFactory(id, s, opts)
			if errors.Is(err, experiment.ErrSchemeNotApplicable) {
				continue
			}
			if err != nil {
				return nil, err
			}
			factories = append(factories, f)
		}
		return func(n int) (int64, error) {
			var calls atomic.Int64
			m := countingMetric(experiment.AcceptedPct, &calls)
			for i := 0; i < n; i++ {
				o := opts
				o.BaseSeed = uint64(i)
				for _, f := range factories {
					if _, err := experiment.RunCurve(name, cfg, f, m, o); err != nil {
						return 0, err
					}
				}
			}
			return calls.Load(), nil
		}, nil
	}}
}
