// Package facsp is the public face of this repository: a Go implementation
// of the fuzzy-logic call admission control system with priority of
// on-going connections (FACS-P) of Mino, Barolli, Durresi, Xhafa and
// Koyama (IEEE ICDCS Workshops 2009), together with the systems it is
// evaluated against — the previous FACS controller, the Shadow Cluster
// Concept, classic guard-channel baselines, and the adaptive
// bandwidth-degradation schemes of Chowdhury, Jang and Haas — and the
// cellular network simulator that reproduces every figure of the paper's
// evaluation plus the cross-scheme head-to-heads.
//
// # Quick start
//
//	ctrl, err := facsp.NewFACSP()
//	if err != nil { ... }
//	dec := ctrl.Admit(facsp.NewRequest(facsp.Voice, 60 /* km/h */, 15 /* deg */))
//	if dec.Accept {
//	    defer ctrl.Release(facsp.NewRequest(facsp.Voice, 60, 15))
//	}
//
// # Reproducing the paper
//
//	curves, err := facsp.RunFigure("10", facsp.ExperimentOptions{})
//
// regenerates Fig. 10 (FACS-P vs FACS); see EXPERIMENTS.md for every
// figure. Sweeps are sharded across a worker pool (ExperimentOptions.
// Workers) with deterministic per-shard RNG substreams, so curves are
// bit-identical for any worker count.
//
// # Surface cache
//
// For admission-rate workloads, the Mamdani pipeline can be compiled into a
// precomputed decision surface answered by multilinear interpolation —
// orders of magnitude faster per Admit, at a small bounded quantization
// error (see EXPERIMENTS.md):
//
//	ctrl, err := facsp.NewFACSP(facsp.WithSurfaceCache(0)) // 0 = default resolution
//
// # Adaptive bandwidth degradation
//
// Beyond the paper's schemes, NewAdapt and NewAdaptFuzzy build controllers
// that protect handoffs by degrading the bandwidth of elastic on-going
// calls in steps (e.g. 10 → 7 → 5 → 3 BU for video) instead of refusing
// admissions, restoring them most-degraded-first as capacity frees up:
//
//	ctrl, err := facsp.NewAdapt() // cac semantics, per-connection IDs required
//
// # Scenarios
//
// Beyond the paper's homogeneous set-up, declarative scenarios describe
// heterogeneous workloads — per-cell load multipliers and capacities
// (hot spots, dead cells), piecewise-linear time-varying arrival
// profiles, bursty MMPP arrivals, and mobility mixes — and rank every
// scheme on the same sweep (see SCENARIOS.md, the scenario cookbook):
//
//	s, err := facsp.LoadScenario("flash-crowd") // or facsp.ScenarioFromFile
//	curves, err := facsp.RunScenario(s, facsp.ExperimentOptions{})
//
// The building blocks live in internal packages: the generic Mamdani
// engine (internal/fuzzy), the controllers (internal/core and
// internal/adapt), the comparators (internal/scc, internal/baseline), the
// event-driven simulator (internal/cellsim), and the scenario layer
// (internal/scenario).
package facsp

import (
	"fmt"
	"io"
	"strings"

	"facsp/internal/adapt"
	"facsp/internal/baseline"
	"facsp/internal/cac"
	"facsp/internal/cellsim"
	"facsp/internal/core"
	"facsp/internal/experiment"
	"facsp/internal/optimal"
	"facsp/internal/plot"
	"facsp/internal/rng"
	"facsp/internal/scc"
	"facsp/internal/scenario"
	"facsp/internal/stats"
	"facsp/internal/traffic"
)

// Re-exported contract types: every admission scheme in the repository
// speaks these.
type (
	// Request describes one connection asking for admission.
	Request = cac.Request
	// Decision is a controller's verdict on one request.
	Decision = cac.Decision
	// Controller is a per-cell call-admission controller.
	Controller = cac.Controller
	// Class is a traffic service class (Text, Voice, Video).
	Class = traffic.Class
)

// The paper's service classes (Section 4: 70%/20%/10% of traffic at
// 1/5/10 bandwidth units).
const (
	Text  = traffic.Text
	Voice = traffic.Voice
	Video = traffic.Video
)

// Config re-exports the FACS controller configuration.
type Config = core.Config

// PConfig re-exports the FACS-P controller configuration.
type PConfig = core.PConfig

// SCCConfig re-exports the shadow-cluster configuration.
type SCCConfig = scc.Config

// DefaultConfig returns the paper's FACS configuration (40 BU capacity).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultPConfig returns the calibrated FACS-P configuration.
func DefaultPConfig() PConfig { return core.DefaultPConfig() }

// DefaultSurfaceResolution is the per-axis grid resolution used by
// WithSurfaceCache when no explicit resolution is given.
const DefaultSurfaceResolution = core.DefaultSurfaceResolution

// WithSurfaceCache returns the default FACS-P configuration with the
// precomputed decision-surface cache enabled: FLC1 and FLC2 are compiled
// once into quantized lookup tables (shared process-wide) and Admit answers
// by multilinear interpolation instead of a full Mamdani inference pass.
// A non-positive resolution selects DefaultSurfaceResolution.
//
//	ctrl, err := facsp.NewFACSP(facsp.WithSurfaceCache(0))
//
// To combine with other overrides, or to enable the cache on the previous
// FACS system, use the config methods directly:
//
//	cfg := facsp.DefaultPConfig().WithSurfaceCache(65)
//	old := facsp.DefaultConfig().WithSurfaceCache(65)
func WithSurfaceCache(resolution int) PConfig {
	return core.DefaultPConfig().WithSurfaceCache(resolution)
}

// NewRequest builds an admission request for a service class: speed in
// km/h, angle in degrees between the user's heading and the bearing to the
// serving base station (0 = straight at it).
func NewRequest(class Class, speedKmh, angleDeg float64) Request {
	return Request{
		Speed:     speedKmh,
		Angle:     angleDeg,
		Bandwidth: class.Bandwidth(),
		RealTime:  class.RealTime(),
	}
}

// NewFACS builds the paper's previous fuzzy admission controller with the
// default configuration; pass a Config to customise.
func NewFACS(cfg ...Config) (*core.FACS, error) {
	c := core.DefaultConfig()
	if len(cfg) > 1 {
		return nil, fmt.Errorf("facsp: NewFACS takes at most one Config")
	}
	if len(cfg) == 1 {
		c = cfg[0]
	}
	return core.NewFACS(c)
}

// NewFACSP builds the paper's proposed priority-aware controller with the
// default configuration; pass a PConfig to customise.
func NewFACSP(cfg ...PConfig) (*core.FACSP, error) {
	c := core.DefaultPConfig()
	if len(cfg) > 1 {
		return nil, fmt.Errorf("facsp: NewFACSP takes at most one PConfig")
	}
	if len(cfg) == 1 {
		c = cfg[0]
	}
	return core.NewFACSP(c)
}

// NewSCC builds the Shadow Cluster Concept comparator (a network-level
// admitter spanning all cells).
func NewSCC(cfg ...SCCConfig) (*scc.Controller, error) {
	c := scc.DefaultConfig()
	if len(cfg) > 1 {
		return nil, fmt.Errorf("facsp: NewSCC takes at most one SCCConfig")
	}
	if len(cfg) == 1 {
		c = cfg[0]
	}
	return scc.New(c)
}

// NewGuardChannel builds the cutoff-priority baseline: the last guard BU
// are reserved for handoffs.
func NewGuardChannel(capacity, guard float64) (*baseline.GuardChannel, error) {
	return baseline.NewGuardChannel(capacity, guard)
}

// NewCompleteSharing builds the no-policy baseline.
func NewCompleteSharing(capacity float64) (*baseline.CompleteSharing, error) {
	return baseline.NewCompleteSharing(capacity)
}

// NewFractionalGuard builds the fractional guard channel baseline, seeded
// deterministically.
func NewFractionalGuard(capacity, threshold float64, seed uint64) (*baseline.FractionalGuard, error) {
	return baseline.NewFractionalGuard(capacity, threshold, rng.New(seed))
}

// AdaptConfig re-exports the adaptive bandwidth-degradation scheme
// configuration: the cell capacity, the per-class degradation ladders and
// the depth budgets per arrival kind.
type AdaptConfig = adapt.Config

// DefaultAdaptConfig returns the adaptive scheme configuration used for
// the repository's experiments: a 40 BU cell, video degradable
// 10 → 7 → 5 → 3 BU, voice 5 → 4 → 3 → 2 BU, text inelastic, and the full
// degradation budget reserved for handoffs.
func DefaultAdaptConfig() AdaptConfig { return adapt.DefaultConfig() }

// NewAdapt builds the adaptive bandwidth-degradation controller: handoffs
// are admitted by squeezing elastic on-going calls down their degradation
// ladders instead of being dropped, and degraded calls are restored
// most-degraded-first as capacity frees up. Every live connection must
// carry a distinct Request.ID. Pass an AdaptConfig to customise.
func NewAdapt(cfg ...AdaptConfig) (*adapt.Controller, error) {
	c := adapt.DefaultConfig()
	if len(cfg) > 1 {
		return nil, fmt.Errorf("facsp: NewAdapt takes at most one AdaptConfig")
	}
	if len(cfg) == 1 {
		c = cfg[0]
	}
	return adapt.New(c)
}

// NewAdaptFuzzy builds the fuzzy adaptive controller: the degradation
// machinery of NewAdapt gated by the FACS-P inference pipeline, with the
// capacity reclaimable by degradation fed into the fuzzy priority stage as
// extra headroom.
func NewAdaptFuzzy(cfg AdaptConfig, pcfg PConfig) (*adapt.Fuzzy, error) {
	return adapt.NewFuzzy(cfg, pcfg)
}

// NewOptimal builds the computed-optimum baseline: the stationary
// threshold policy of the single-cell birth-death Markov decision model
// (blocked call cost 1, dropped call cost 10), solved once per capacity by
// relative value iteration and compiled into an allocation-free lookup
// table. Policies are cached process-wide per capacity. Every scheme's
// leaderboard regret is measured against this controller (see
// EXPERIMENTS.md "Optimal baseline").
func NewOptimal(capacityBU float64) (Controller, error) {
	return optimal.ForCapacity(capacityBU)
}

// SimConfig re-exports the cellular simulator configuration.
type SimConfig = cellsim.Config

// SimResult re-exports the simulator's per-run accounting.
type SimResult = cellsim.Result

// DefaultSimConfig returns the paper's Section 4 simulation set-up for the
// given number of requesting connections and seed.
func DefaultSimConfig(requests int, seed uint64) SimConfig {
	return cellsim.DefaultConfig(requests, seed)
}

// SimulateFACSP runs one cellular simulation with FACS-P controllers at
// every base station and returns the call-level accounting.
func SimulateFACSP(cfg SimConfig) (SimResult, error) {
	sim, err := cellsim.New(cfg, experiment.FACSPFactory()())
	if err != nil {
		return SimResult{}, err
	}
	return sim.Run()
}

// SimulateFACS runs one cellular simulation with FACS controllers.
func SimulateFACS(cfg SimConfig) (SimResult, error) {
	sim, err := cellsim.New(cfg, experiment.FACSFactory()())
	if err != nil {
		return SimResult{}, err
	}
	return sim.Run()
}

// ExperimentOptions re-exports the experiment sweep options.
type ExperimentOptions = experiment.Options

// Curve re-exports a named experiment curve with confidence intervals.
type Curve = experiment.Curve

// RunFigure regenerates one of the paper's figures ("7", "8", "9", "10"),
// the QoS experiment ("drops"), the adaptive-bandwidth head-to-heads
// ("adapt-drops", "adapt-ratio") or an ablation study. See EXPERIMENTS.md
// for the full catalogue and expected shapes.
func RunFigure(id string, opts ExperimentOptions) ([]Curve, error) {
	fig, ok := experiment.Figures()[id]
	if !ok {
		return nil, fmt.Errorf("facsp: unknown figure %q (have %s)", id,
			strings.Join(experiment.FigureIDs(), ", "))
	}
	return fig(opts)
}

// Scenario re-exports the declarative scenario description: a versioned,
// validated document (Go struct or JSON file) describing per-cell
// heterogeneity, time-varying and bursty arrivals, and mobility mixes.
// SCENARIOS.md is the schema reference and cookbook.
type Scenario = scenario.Scenario

// ScenarioNames returns the named scenarios of the embedded library
// (flash-crowd, stadium-hotspot, highway, diurnal-city, ...), sorted.
func ScenarioNames() []string { return scenario.Names() }

// LoadScenario returns a named scenario from the embedded library.
func LoadScenario(name string) (*Scenario, error) { return scenario.Load(name) }

// ScenarioFromJSON parses and validates a scenario document; unknown
// fields are rejected so typos fail loudly.
func ScenarioFromJSON(data []byte) (*Scenario, error) { return scenario.FromJSON(data) }

// ScenarioFromFile reads and validates a scenario JSON file.
func ScenarioFromFile(path string) (*Scenario, error) { return scenario.FromFile(path) }

// RunScenario ranks every admission scheme (FACS, FACS-P, SCC,
// guard-channel, adapt, adapt-fuzzy, optimal) on one scenario:
// each scheme sweeps the same load axis under the scenario's workload and
// returns one curve of the paper's headline metric (percentage of
// accepted centre-cell calls). Sweeps are sharded like RunFigure: curves
// are bit-identical for any ExperimentOptions.Workers. On scenarios with
// heterogeneous cell capacity the network-level SCC scheme is skipped.
// For the dropped-call and degradation-ratio metrics, see cmd/facs-sim's
// -metric flag.
func RunScenario(s *Scenario, opts ExperimentOptions) ([]Curve, error) {
	return experiment.RunScenario(s, opts)
}

// Leaderboard re-exports the per-scenario scheme ranking by the weighted
// drop/block objective, with each scheme's regret against the computed
// optimal policy.
type Leaderboard = experiment.Leaderboard

// LeaderboardEntry re-exports one scheme's row on a Leaderboard.
type LeaderboardEntry = experiment.LeaderboardEntry

// RunLeaderboard ranks every applicable scheme on one scenario by the
// weighted objective J = 10·drop% + block% + degradation shortfall and
// computes regret against NewOptimal's policy. The ranking is
// bit-identical for any ExperimentOptions.Workers; cmd/facs-sim
// -leaderboard prints it and CI gates on Leaderboard.GateOptimalFloor.
func RunLeaderboard(s *Scenario, opts ExperimentOptions) (*Leaderboard, error) {
	return experiment.RunLeaderboard(s, opts)
}

// CityParams parameterizes the synthetic-city scenario generator: a
// metro disk with a downtown core, a suburb band, arterial highway
// corridors extending past the metro edge, stadium-style hot spots and
// dead zones. The zero value (plus a Name) generates the embedded
// metro-city scenario; see SCENARIOS.md "Generate a city".
type CityParams = scenario.CityParams

// GenerateCity builds a schema-2 scenario from city parameters. The
// output is a pure function of p, so the same parameters always produce
// the same scenario document.
func GenerateCity(p CityParams) (*Scenario, error) { return scenario.GenerateCity(p) }

// ShardOptions sizes the cell-group-sharded city engine: how many cell
// groups the topology is partitioned into and how many workers own
// them. Zero values pick defaults at run time.
type ShardOptions = cellsim.ShardOptions

// CityRun names one city-scale simulation: a scheme, a load level, a
// seed and the shard sizing.
type CityRun = experiment.CityRun

// RunCity executes ONE simulation over a scenario's multi-cluster
// topology, sharded cell-group-per-worker. Per-cell RNG substreams are
// keyed by topology slot and cross-group handoffs merge in a canonical
// order, so results are bit-identical for any ShardOptions — worker
// count and group count alike. Schemes without per-cell compiled state
// (scc) are rejected.
func RunCity(s *Scenario, run CityRun, opts ExperimentOptions) (SimResult, error) {
	return experiment.RunCity(s, run, opts)
}

// RenderChart draws curves as an ASCII chart onto w.
func RenderChart(w io.Writer, title string, curves []Curve) error {
	series := make([]stats.Series, len(curves))
	for i, c := range curves {
		series[i] = c.Series
	}
	chart := plot.Chart{
		Title:  title,
		XLabel: "number of requesting connections",
		YLabel: "percentage of accepted calls",
	}
	return chart.Render(w, series...)
}

// WriteCSV emits curves as tidy CSV (series,x,y) onto w.
func WriteCSV(w io.Writer, curves []Curve) error {
	series := make([]stats.Series, len(curves))
	for i, c := range curves {
		series[i] = c.Series
	}
	return plot.WriteCSV(w, series...)
}
