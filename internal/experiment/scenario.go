package experiment

import (
	"errors"
	"fmt"
	"sort"

	"facsp/internal/adapt"
	"facsp/internal/baseline"
	"facsp/internal/cac"
	"facsp/internal/cellsim"
	"facsp/internal/core"
	"facsp/internal/hexgrid"
	"facsp/internal/optimal"
	"facsp/internal/scc"
	"facsp/internal/scenario"
)

// Scenario sweeps: every scheme of the repository ranked on one declarative
// scenario (internal/scenario). A scenario sweep is sharded exactly like a
// figure sweep — per-(load, replication) RNG substreams, bit-identical
// curves for any worker count — but the simulation config at each point
// comes from Scenario.ConfigFor instead of the paper's homogeneous set-up,
// and the per-cell controllers honour the scenario's capacity map
// (hot-spot capacity boosts, dead cells).

// SchemeIDs returns the admission-scheme identifiers ranked by scenario
// sweeps, in sorted order — derived from the same registry as
// ScenarioSchemeFactory, so usage text and doc tables can never go stale.
func SchemeIDs() []string {
	ids := make([]string, 0, len(schemeNames))
	for id := range schemeNames {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// schemeNames maps scheme ids to the display names used for curves.
var schemeNames = map[string]string{
	"facs":        "FACS",
	"facsp":       "FACS-P",
	"scc":         "SCC",
	"guard":       "guard-channel",
	"adapt":       "adapt",
	"adapt-fuzzy": "adapt-fuzzy",
	"optimal":     "optimal",
}

// ErrSchemeNotApplicable marks a scheme that cannot represent a scenario
// (e.g. the network-level SCC on heterogeneous cell capacity). Scenario
// rankings skip such schemes instead of failing the whole sweep.
var ErrSchemeNotApplicable = errors.New("scheme not applicable to this scenario")

// deadCell is the controller of a cell whose scenario capacity is zero (a
// base station in outage): it denies every request and never holds
// bandwidth.
type deadCell struct{}

func (deadCell) Admit(cac.Request) cac.Decision {
	return cac.Decision{Accept: false, Score: -1, Outcome: "dead-cell"}
}
func (deadCell) Release(cac.Request) error {
	return fmt.Errorf("experiment: release on a dead cell")
}
func (deadCell) Occupancy() float64 { return 0 }
func (deadCell) Capacity() float64  { return 0 }

// perCellCapacityFactory adapts a capacity-parameterised controller
// constructor to a per-cell admitter factory over the scenario's capacity
// map. Cells with zero capacity get the deadCell controller; construction
// errors for positive capacities are programming errors (the scenario was
// validated) and panic at first use, like every other factory here.
func perCellCapacityFactory(capAt func(hexgrid.Coord) float64, build func(capacityBU float64) (cac.Controller, error)) AdmitterFactory {
	return func() cellsim.Admitter {
		return cellsim.NewPerCell(func(cell hexgrid.Coord) cac.Controller {
			capacity := capAt(cell)
			if capacity <= 0 {
				return deadCell{}
			}
			c, err := build(capacity)
			if err != nil {
				panic("experiment: " + err.Error())
			}
			return c
		})
	}
}

// guardFraction is the guard-channel comparator's handoff reservation as a
// fraction of each cell's capacity in scenario sweeps: the same 20%
// protection level as the fixed GuardBand on the paper's 40 BU cell.
const guardFraction = GuardBand / float64(core.CounterMax)

// ScenarioSchemeFactory returns the named scheme's admitter factory wired
// to the scenario's per-cell capacities. The scheme ids are those of
// SchemeIDs. SCC is a network-level scheme with a single per-cell capacity
// and is therefore unavailable on scenarios with heterogeneous capacity.
func ScenarioSchemeFactory(id string, s *scenario.Scenario, o Options) (AdmitterFactory, error) {
	capAt := s.CapacityAt
	switch id {
	case "facs":
		cfg := core.DefaultConfig()
		cfg.SurfaceResolution = o.SurfaceResolution
		return perCellCapacityFactory(capAt, func(capacityBU float64) (cac.Controller, error) {
			c := cfg
			c.Capacity = capacityBU
			return core.NewFACS(c)
		}), nil
	case "facsp":
		cfg := core.DefaultPConfig()
		cfg.SurfaceResolution = o.SurfaceResolution
		return perCellCapacityFactory(capAt, func(capacityBU float64) (cac.Controller, error) {
			c := cfg
			c.Capacity = capacityBU
			return core.NewFACSP(c)
		}), nil
	case "guard":
		return perCellCapacityFactory(capAt, func(capacityBU float64) (cac.Controller, error) {
			return baseline.NewGuardChannel(capacityBU, guardFraction*capacityBU)
		}), nil
	case "adapt":
		cfg := adapt.DefaultConfig()
		return perCellCapacityFactory(capAt, func(capacityBU float64) (cac.Controller, error) {
			c := cfg
			c.Capacity = capacityBU
			return adapt.New(c)
		}), nil
	case "adapt-fuzzy":
		cfg := adapt.DefaultConfig()
		pcfg := core.DefaultPConfig()
		pcfg.SurfaceResolution = o.SurfaceResolution
		return perCellCapacityFactory(capAt, func(capacityBU float64) (cac.Controller, error) {
			c, p := cfg, pcfg
			c.Capacity = capacityBU
			p.Capacity = capacityBU
			return adapt.NewFuzzy(c, p)
		}), nil
	case "optimal":
		return perCellCapacityFactory(capAt, func(capacityBU float64) (cac.Controller, error) {
			return optimal.ForCapacity(capacityBU)
		}), nil
	case "scc":
		if !s.UniformCapacity() {
			return nil, fmt.Errorf("experiment: scheme scc needs uniform cell capacity, scenario %q is heterogeneous: %w",
				s.Name, ErrSchemeNotApplicable)
		}
		cfg := scc.DefaultConfig()
		capacity := capAt(hexgrid.Coord{})
		// Scale the empty-cell handoff headroom with the capacity so the
		// reservation stays the same fraction of the cell.
		cfg.Headroom *= capacity / cfg.Capacity
		cfg.Capacity = capacity
		if s.CellRadiusM > 0 {
			cfg.CellRadius = s.CellRadiusM
		}
		return func() cellsim.Admitter {
			c, err := scc.New(cfg)
			if err != nil {
				panic("experiment: " + err.Error())
			}
			return c
		}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown scheme %q (have %v)", id, SchemeIDs())
	}
}

// ScenarioConfigFunc adapts a validated scenario to the sweep's ConfigFunc.
// ConfigFor failures after the up-front validation in RunScenarioMetric
// are programming errors and panic, mirroring the factory contract.
func ScenarioConfigFunc(s *scenario.Scenario) ConfigFunc {
	return func(load int, seed uint64) cellsim.Config {
		cfg, err := s.ConfigFor(load, seed)
		if err != nil {
			panic("experiment: " + err.Error())
		}
		return cfg
	}
}

// RunScenario ranks every scheme on the scenario by the paper's headline
// metric, the percentage of accepted centre-cell calls.
func RunScenario(s *scenario.Scenario, opts Options) ([]Curve, error) {
	return RunScenarioMetric(s, AcceptedPct, opts)
}

// RunScenarioMetric sweeps the scenario's load axis once per scheme and
// returns one curve per scheme (sorted by scheme id), all sharded with
// deterministic per-shard substreams: the ranking is bit-identical for any
// worker count. On scenarios with heterogeneous cell capacity the
// network-level SCC scheme is skipped (it has a single per-cell capacity);
// every per-cell scheme always runs.
func RunScenarioMetric(s *scenario.Scenario, metric Metric, opts Options) ([]Curve, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	for _, load := range opts.Loads {
		if load < 0 {
			return nil, fmt.Errorf("experiment: scenario %q: negative load %d", s.Name, load)
		}
	}
	cfg := ScenarioConfigFunc(s)
	curves := make([]Curve, 0, len(schemeNames))
	for _, id := range SchemeIDs() {
		factory, err := ScenarioSchemeFactory(id, s, opts)
		if errors.Is(err, ErrSchemeNotApplicable) {
			continue
		}
		if err != nil {
			return nil, err
		}
		curve, err := RunCurve(schemeNames[id], cfg, factory, metric, opts)
		if err != nil {
			return nil, fmt.Errorf("experiment: scenario %q scheme %s: %w", s.Name, id, err)
		}
		curves = append(curves, curve)
	}
	return curves, nil
}
