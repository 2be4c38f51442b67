// Package experiment contains one runner per figure of the paper's
// evaluation (Figs. 7-10), the QoS (call-dropping) experiment that
// substantiates the paper's closing claim, and the adaptive-bandwidth
// head-to-heads (AdaptDrops, AdaptRatio) that pit the degradation schemes
// of internal/adapt against FACS-P and the guard channel. The runners are
// shared by cmd/facs-sim, the repository benchmarks, and EXPERIMENTS.md.
//
// Every runner sweeps the paper's x axis (number of requesting
// connections), replicates each point across seeds, and returns named
// curves with 95% confidence half-widths. Sweeps are sharded: every
// (load-point, replication) cell is an independent simulation with its own
// deterministic RNG substream (rng.Substream), executed on a bounded worker
// pool and reduced in fixed order — so curves are bit-identical for a given
// Options regardless of Workers or GOMAXPROCS.
package experiment

import (
	"fmt"
	"runtime"
	"sort"

	"facsp/internal/adapt"
	"facsp/internal/baseline"
	"facsp/internal/cac"
	"facsp/internal/cellsim"
	"facsp/internal/core"
	"facsp/internal/fuzzy"
	"facsp/internal/hexgrid"
	"facsp/internal/metrics"
	"facsp/internal/optimal"
	"facsp/internal/scc"
	"facsp/internal/stats"
)

// Options control an experiment sweep.
type Options struct {
	// Loads is the x axis: numbers of requesting connections. Nil uses
	// DefaultLoads.
	Loads []int
	// Replications is the number of seeds per point (default 20).
	Replications int
	// Workers bounds the worker pool (default GOMAXPROCS). Results are
	// bit-identical for any value; Workers only changes throughput.
	Workers int
	// BaseSeed offsets all run seeds, for independent repetitions of a
	// whole experiment. Every shard's seed is derived from it with
	// rng.Substream.
	BaseSeed uint64
	// SurfaceResolution, when positive, runs the fuzzy controllers on
	// precomputed decision surfaces at this per-axis resolution instead of
	// exact Mamdani inference (see core.Config.SurfaceResolution) — much
	// faster, at a small quantization error. 0 keeps exact inference, which
	// is what the published figure shapes are validated against.
	SurfaceResolution int
	// Metrics, when non-nil, is injected into every shard's simulation
	// config so the whole sweep accumulates into one shared per-cell
	// counter registry (registry bumps are atomic, so concurrent shards
	// compose; see cellsim.Config.Metrics). The registry must cover the
	// largest topology the ConfigFunc produces. Counter totals are
	// deterministic across worker counts; only interleaving varies.
	Metrics *metrics.Registry
}

// DefaultLoads is the x axis used for the figures: dense enough around the
// paper's crossover points (25 for Fig. 10, 50 for Fig. 7).
func DefaultLoads() []int {
	return []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 60, 70, 80, 90, 100}
}

// validate rejects option values that would otherwise surface as panics
// deep inside a worker goroutine.
func (o Options) validate() error {
	// The 0-or->=2 rule is core's: one validation for every resolution knob.
	if err := core.ValidateSurfaceResolution(o.SurfaceResolution); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Loads == nil {
		o.Loads = DefaultLoads()
	}
	if o.Replications <= 0 {
		o.Replications = 20
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Curve is a named figure curve with per-point confidence intervals.
type Curve struct {
	stats.Series
	// CI95 holds the 95% confidence half-width for each point, in point
	// order.
	CI95 []float64
}

// AdmitterFactory builds a fresh admitter for one simulation run. The
// factory must return an independent instance each call: runs never share
// controller state.
type AdmitterFactory func() cellsim.Admitter

// Metric extracts the y value from one run.
type Metric func(cellsim.Result) float64

// AcceptedPct is the paper's headline metric.
func AcceptedPct(r cellsim.Result) float64 { return r.AcceptedPct() }

// DropPct measures the QoS of on-going connections: the percentage of
// admitted calls later dropped at a handoff.
func DropPct(r cellsim.Result) float64 { return r.DropPct() }

// BandwidthRatioPct is the degradation-ratio metric of the adaptive
// schemes: the time-weighted mean received/requested bandwidth of admitted
// calls, as a percentage (100 = nobody was ever degraded).
func BandwidthRatioPct(r cellsim.Result) float64 { return 100 * r.BandwidthRatio() }

// FACSFactory returns a per-cell FACS admitter factory with the default
// configuration.
func FACSFactory() AdmitterFactory { return FACSFactoryWith(core.DefaultConfig()) }

// FACSFactoryWith returns a per-cell FACS admitter factory for cfg. The
// config must be valid: factories are wired statically into figure runners,
// so a bad one is a programming error and panics at first use.
func FACSFactoryWith(cfg core.Config) AdmitterFactory {
	return func() cellsim.Admitter {
		return cellsim.NewPerCell(func(hexgrid.Coord) cac.Controller {
			f, err := core.NewFACS(cfg)
			if err != nil {
				panic("experiment: " + err.Error())
			}
			return f
		})
	}
}

// FACSPFactory returns a per-cell FACS-P admitter factory with the default
// configuration.
func FACSPFactory() AdmitterFactory { return FACSPFactoryWith(core.DefaultPConfig()) }

// FACSPFactoryWith returns a per-cell FACS-P admitter factory for cfg.
func FACSPFactoryWith(cfg core.PConfig) AdmitterFactory {
	return func() cellsim.Admitter {
		return cellsim.NewPerCell(func(hexgrid.Coord) cac.Controller {
			f, err := core.NewFACSP(cfg)
			if err != nil {
				panic("experiment: " + err.Error())
			}
			return f
		})
	}
}

// facsFactory returns the FACS factory honouring the options' surface
// setting.
func (o Options) facsFactory() AdmitterFactory {
	cfg := core.DefaultConfig()
	cfg.SurfaceResolution = o.SurfaceResolution
	return FACSFactoryWith(cfg)
}

// facspFactory returns the FACS-P factory honouring the options' surface
// setting.
func (o Options) facspFactory() AdmitterFactory {
	cfg := core.DefaultPConfig()
	cfg.SurfaceResolution = o.SurfaceResolution
	return FACSPFactoryWith(cfg)
}

// AdaptFactory returns a per-cell adaptive-bandwidth admitter factory
// with the default degradation ladders (internal/adapt).
func AdaptFactory() AdmitterFactory { return AdaptFactoryWith(adapt.DefaultConfig()) }

// AdaptFactoryWith returns a per-cell adaptive-bandwidth admitter factory
// for cfg.
func AdaptFactoryWith(cfg adapt.Config) AdmitterFactory {
	return func() cellsim.Admitter {
		return cellsim.NewPerCell(func(hexgrid.Coord) cac.Controller {
			c, err := adapt.New(cfg)
			if err != nil {
				panic("experiment: " + err.Error())
			}
			return c
		})
	}
}

// AdaptFuzzyFactory returns a per-cell fuzzy adaptive-bandwidth admitter
// factory: the degradation machinery gated by the FACS-P inference
// pipeline with the reclaimable headroom fed into the priority stage.
func AdaptFuzzyFactory() AdmitterFactory {
	return AdaptFuzzyFactoryWith(adapt.DefaultConfig(), core.DefaultPConfig())
}

// AdaptFuzzyFactoryWith returns a per-cell fuzzy adaptive admitter factory
// for the given degradation and FACS-P configs.
func AdaptFuzzyFactoryWith(cfg adapt.Config, pcfg core.PConfig) AdmitterFactory {
	return func() cellsim.Admitter {
		return cellsim.NewPerCell(func(hexgrid.Coord) cac.Controller {
			c, err := adapt.NewFuzzy(cfg, pcfg)
			if err != nil {
				panic("experiment: " + err.Error())
			}
			return c
		})
	}
}

// adaptFuzzyFactory returns the fuzzy adaptive factory honouring the
// options' surface setting.
func (o Options) adaptFuzzyFactory() AdmitterFactory {
	pcfg := core.DefaultPConfig()
	pcfg.SurfaceResolution = o.SurfaceResolution
	return AdaptFuzzyFactoryWith(adapt.DefaultConfig(), pcfg)
}

// GuardFactory returns a per-cell guard-channel admitter factory with the
// given capacity and guard band in BU.
func GuardFactory(capacity, guard float64) AdmitterFactory {
	return func() cellsim.Admitter {
		return cellsim.NewPerCell(func(hexgrid.Coord) cac.Controller {
			c, err := baseline.NewGuardChannel(capacity, guard)
			if err != nil {
				panic("experiment: " + err.Error())
			}
			return c
		})
	}
}

// OptimalFactory returns a per-cell admitter factory for the
// value-iteration optimal threshold policy (internal/optimal) at the given
// capacity — the computed upper bound every heuristic scheme is ranked
// against.
func OptimalFactory(capacity float64) AdmitterFactory {
	return func() cellsim.Admitter {
		return cellsim.NewPerCell(func(hexgrid.Coord) cac.Controller {
			c, err := optimal.ForCapacity(capacity)
			if err != nil {
				panic("experiment: " + err.Error())
			}
			return c
		})
	}
}

// SCCFactory returns a network-level shadow-cluster admitter factory.
func SCCFactory() AdmitterFactory {
	return func() cellsim.Admitter {
		c, err := scc.New(scc.DefaultConfig())
		if err != nil {
			panic("experiment: " + err.Error())
		}
		return c
	}
}

// SchemeFactory returns the admitter factory for one of the scheme ids in
// SchemeIDs, honouring the options' surface setting — the paper-default
// configuration of every scheme, as used by the figure head-to-heads. The
// perf harness (internal/perf) builds its scheme x figure sweeps from it.
func (o Options) SchemeFactory(id string) (AdmitterFactory, error) {
	switch id {
	case "facs":
		return o.facsFactory(), nil
	case "facsp":
		return o.facspFactory(), nil
	case "scc":
		return SCCFactory(), nil
	case "guard":
		return GuardFactory(core.CounterMax, GuardBand), nil
	case "adapt":
		return AdaptFactory(), nil
	case "adapt-fuzzy":
		return o.adaptFuzzyFactory(), nil
	case "optimal":
		return OptimalFactory(core.CounterMax), nil
	default:
		return nil, fmt.Errorf("experiment: unknown scheme %q (have %v)", id, SchemeIDs())
	}
}

// ConfigFunc produces the simulation config for one (load, seed) pair;
// figure runners use it to pin speeds/angles and choose the cluster setup.
type ConfigFunc func(load int, seed uint64) cellsim.Config

// RunCurve sweeps the loads for one scheme and returns its curve. Shards
// run in parallel (Options.Workers) with deterministic per-shard RNG
// substreams; the curve is bit-identical for any worker count.
func RunCurve(name string, cfg ConfigFunc, factory AdmitterFactory, metric Metric, opts Options) (Curve, error) {
	if err := opts.validate(); err != nil {
		return Curve{}, fmt.Errorf("curve %q: %w", name, err)
	}
	o := opts.withDefaults()

	results, err := runSharded(o, func(sh Shard) (float64, error) {
		c := cfg(sh.Load, sh.Seed)
		if o.Metrics != nil {
			c.Metrics = o.Metrics
		}
		sim, err := cellsim.New(c, factory())
		if err != nil {
			return 0, err
		}
		res, err := sim.Run()
		if err != nil {
			return 0, err
		}
		return metric(res), nil
	})
	if err != nil {
		return Curve{}, fmt.Errorf("experiment: curve %q: %w", name, err)
	}

	curve := Curve{Series: stats.Series{Name: name}}
	for li, load := range o.Loads {
		var acc stats.Running
		for _, v := range results[li] {
			acc.Add(v)
		}
		curve.Add(float64(load), acc.Mean())
		curve.CI95 = append(curve.CI95, acc.CI95())
	}
	return curve, nil
}

// singleCellConfig is the legacy single-cell set-up of the paper's
// previous work ([14,15]): all requesting connections target the tagged
// cell, neighbour cells carry no background traffic. Fig. 7 republishes
// that comparison.
func singleCellConfig(load int, seed uint64) cellsim.Config {
	c := cellsim.DefaultConfig(load, seed)
	c.NeighborRequests = 0
	return c
}

// homogeneousConfig is the paper's FACS-P set-up: every cell receives the
// same number of requesting connections, so handoffs contend with
// background load (Figs. 8-10).
func homogeneousConfig(load int, seed uint64) cellsim.Config {
	return cellsim.DefaultConfig(load, seed)
}

// Fig7 reproduces "Performance of FACS and SCC": percentage of accepted
// calls vs number of requesting connections for the previous FACS system
// and the Shadow Cluster Concept. Expected shape: FACS above SCC below
// ~50 requesting connections, below SCC above it.
func Fig7(opts Options) ([]Curve, error) {
	facs, err := RunCurve("FACS", singleCellConfig, opts.facsFactory(), AcceptedPct, opts)
	if err != nil {
		return nil, err
	}
	sccCurve, err := RunCurve("SCC", singleCellConfig, SCCFactory(), AcceptedPct, opts)
	if err != nil {
		return nil, err
	}
	return []Curve{facs, sccCurve}, nil
}

// Fig8 reproduces "percentage of accepted calls vs number of requesting
// connections for different speed values (FACS-P)": one curve per pinned
// user speed. Expected shape: acceptance increases with speed at every
// load. (The paper's axis labels the speeds "km/s"; they are km/h.)
//
// Like Fig. 7, this sensitivity sweep uses the single-cell set-up: it
// probes the tagged BS under one controlled parameter. Pinning every
// *neighbour* cell to the same extreme parameter would bury the decision
// effect under synchronized handoff-in traffic the paper does not model.
func Fig8(opts Options) ([]Curve, error) {
	speeds := []float64{4, 10, 30, 60}
	curves := make([]Curve, 0, len(speeds))
	for _, sp := range speeds {
		sp := sp
		cfg := func(load int, seed uint64) cellsim.Config {
			c := singleCellConfig(load, seed)
			c.Speed = cellsim.Fixed(sp)
			return c
		}
		curve, err := RunCurve(fmt.Sprintf("%g km/h", sp), cfg, opts.facspFactory(), AcceptedPct, opts)
		if err != nil {
			return nil, err
		}
		curves = append(curves, curve)
	}
	return curves, nil
}

// Fig9 reproduces "percentage of accepted calls vs number of requesting
// connections for different angle values (FACS-P)": one curve per pinned
// user angle. Expected shape: acceptance decreases as the angle grows,
// with the 90-degree curve near the floor (beyond 90 the paper reports
// ~zero and does not plot it).
//
// The sweep runs in static (decision-level) mode: with spatial motion a
// pinned 90-degree trajectory mechanically shortens cell residence and
// frees capacity faster, an artifact that rewards exactly the users the
// policy is meant to filter. Holding occupancy dynamics identical across
// curves isolates what the paper varies — the admission decision.
func Fig9(opts Options) ([]Curve, error) {
	angles := []float64{0, 30, 50, 60, 90}
	curves := make([]Curve, 0, len(angles))
	for _, an := range angles {
		an := an
		cfg := func(load int, seed uint64) cellsim.Config {
			c := singleCellConfig(load, seed)
			c.Angle = cellsim.Fixed(an)
			c.Static = true
			return c
		}
		curve, err := RunCurve(fmt.Sprintf("angle=%g", an), cfg, opts.facspFactory(), AcceptedPct, opts)
		if err != nil {
			return nil, err
		}
		curves = append(curves, curve)
	}
	return curves, nil
}

// Fig10 reproduces "Performance of proposed FACS-P with FACS": percentage
// of accepted calls for the proposed and previous systems. Expected shape:
// FACS-P above FACS below ~25 requesting connections, below FACS above it,
// with the gap widening toward 100.
func Fig10(opts Options) ([]Curve, error) {
	facsp, err := RunCurve("FACS-P (proposed)", homogeneousConfig, opts.facspFactory(), AcceptedPct, opts)
	if err != nil {
		return nil, err
	}
	facs, err := RunCurve("FACS (previous)", homogeneousConfig, opts.facsFactory(), AcceptedPct, opts)
	if err != nil {
		return nil, err
	}
	return []Curve{facsp, facs}, nil
}

// Drops measures the QoS of on-going connections for FACS-P vs FACS: the
// percentage of admitted calls later dropped at a handoff. It backs the
// paper's conclusion that the proposed system "keeps a higher QoS of
// on-going connections" with a number the paper itself never plots.
func Drops(opts Options) ([]Curve, error) {
	facsp, err := RunCurve("FACS-P drop%", homogeneousConfig, opts.facspFactory(), DropPct, opts)
	if err != nil {
		return nil, err
	}
	facs, err := RunCurve("FACS drop%", homogeneousConfig, opts.facsFactory(), DropPct, opts)
	if err != nil {
		return nil, err
	}
	return []Curve{facsp, facs}, nil
}

// GuardBand is the handoff reservation of the guard-channel comparator in
// the adaptive-bandwidth experiments: 8 of the 40 BU, i.e. 20% of the cell
// — a strong classical protection level for the degradation schemes to
// beat (and the default of cmd/facs-server's guard scheme). Exported so
// the perf harness (internal/perf) can rebuild the same head-to-head.
const GuardBand = 8

// AdaptDrops is the adaptive-bandwidth head-to-head on the QoS metric the
// scheme exists for: the percentage of admitted calls later dropped at a
// handoff, for the crisp and fuzzy adaptive schemes vs FACS-P vs a
// guard channel reserving 20% of the cell. Expected shape: both adaptive
// curves below guard-channel at every load — degrading elastic on-going
// calls admits handoffs a reservation would still have to refuse.
func AdaptDrops(opts Options) ([]Curve, error) {
	adaptCurve, err := RunCurve("adapt drop%", homogeneousConfig, AdaptFactory(), DropPct, opts)
	if err != nil {
		return nil, err
	}
	fuzzyCurve, err := RunCurve("adapt-fuzzy drop%", homogeneousConfig, opts.adaptFuzzyFactory(), DropPct, opts)
	if err != nil {
		return nil, err
	}
	facsp, err := RunCurve("FACS-P drop%", homogeneousConfig, opts.facspFactory(), DropPct, opts)
	if err != nil {
		return nil, err
	}
	guard, err := RunCurve("guard-channel drop%", homogeneousConfig,
		GuardFactory(core.CounterMax, GuardBand), DropPct, opts)
	if err != nil {
		return nil, err
	}
	return []Curve{adaptCurve, fuzzyCurve, facsp, guard}, nil
}

// AdaptRatio reports what the adaptive schemes pay for their handoff
// protection: the degradation ratio (time-weighted mean received/requested
// bandwidth of admitted calls, in percent) vs offered load, with the
// guard channel as the flat-100% reference. Expected shape: both adaptive
// curves decline with load as elastic calls spend more time squeezed.
func AdaptRatio(opts Options) ([]Curve, error) {
	adaptCurve, err := RunCurve("adapt", homogeneousConfig, AdaptFactory(), BandwidthRatioPct, opts)
	if err != nil {
		return nil, err
	}
	fuzzyCurve, err := RunCurve("adapt-fuzzy", homogeneousConfig, opts.adaptFuzzyFactory(), BandwidthRatioPct, opts)
	if err != nil {
		return nil, err
	}
	guard, err := RunCurve("guard-channel", homogeneousConfig,
		GuardFactory(core.CounterMax, GuardBand), BandwidthRatioPct, opts)
	if err != nil {
		return nil, err
	}
	return []Curve{adaptCurve, fuzzyCurve, guard}, nil
}

// AblationHandoffPriority isolates the handoff-priority half of FACS-P's
// mechanism: the full controller vs one whose handoffs face the same
// adaptive threshold as new calls. The gap in dropped-call percentage is
// the value of "priority of on-going connections" by itself.
func AblationHandoffPriority(opts Options) ([]Curve, error) {
	withPriority, err := RunCurve("handoff priority (default)", homogeneousConfig, opts.facspFactory(), DropPct, opts)
	if err != nil {
		return nil, err
	}
	noCfg := core.DefaultPConfig()
	// Handoffs must clear the same bar as a new call into an empty-ish
	// cell: no reserved leniency.
	noCfg.HandoffThreshold = core.DefaultThreshold
	noCfg.SurfaceResolution = opts.SurfaceResolution
	noPriority := FACSPFactoryWith(noCfg)
	without, err := RunCurve("no handoff priority", homogeneousConfig, noPriority, DropPct, opts)
	if err != nil {
		return nil, err
	}
	return []Curve{withPriority, without}, nil
}

// AblationDefuzzifier compares the centroid defuzzifier against the cheap
// height defuzzifier on the full Fig. 10 workload: how much of the curve
// is shaped by the defuzzification choice DESIGN.md discusses.
func AblationDefuzzifier(opts Options) ([]Curve, error) {
	centroid, err := RunCurve("centroid defuzzifier", homogeneousConfig, opts.facspFactory(), AcceptedPct, opts)
	if err != nil {
		return nil, err
	}
	heightCfg := core.DefaultPConfig()
	heightCfg.Defuzzifier = fuzzy.Height{}
	heightCfg.SurfaceResolution = opts.SurfaceResolution
	height := FACSPFactoryWith(heightCfg)
	heightCurve, err := RunCurve("height defuzzifier", homogeneousConfig, height, AcceptedPct, opts)
	if err != nil {
		return nil, err
	}
	return []Curve{centroid, heightCurve}, nil
}

// Figures maps figure identifiers to their runners, for cmd/facs-sim.
func Figures() map[string]func(Options) ([]Curve, error) {
	return map[string]func(Options) ([]Curve, error){
		"7":                Fig7,
		"8":                Fig8,
		"9":                Fig9,
		"10":               Fig10,
		"drops":            Drops,
		"adapt-drops":      AdaptDrops,
		"adapt-ratio":      AdaptRatio,
		"ablation-handoff": AblationHandoffPriority,
		"ablation-defuzz":  AblationDefuzzifier,
	}
}

// FigureIDs returns the known figure identifiers in sorted order, for
// usage and error text — derived from the registry so it can never go
// stale.
func FigureIDs() []string {
	figs := Figures()
	ids := make([]string, 0, len(figs))
	for id := range figs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
