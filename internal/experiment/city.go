package experiment

import (
	"fmt"

	"facsp/internal/cellsim"
	"facsp/internal/scenario"
)

// City-scale runs: one multi-cluster scenario (typically emitted by
// scenario.GenerateCity) executed on the cell-group-sharded engine
// (cellsim.RunSharded) instead of the single-heap reference engine. Where
// a scenario sweep parallelises across (load, replication) shards, a city
// run parallelises inside ONE simulation — the topology is partitioned
// into worker-owned cell groups — so a single 1000-cell run speeds up
// with worker count while its metrics stay bit-identical.

// CityRun parameterises one sharded city simulation.
type CityRun struct {
	// Scheme is the admission-scheme id (see SchemeIDs). Network-level
	// schemes without per-cell compiled state (scc) cannot shard and
	// return ErrSchemeNotApplicable.
	Scheme string
	// Load is the per-unit-load number of requesting connections fed to
	// Scenario.ConfigFor; each cell offers round(Load × its multiplier).
	Load int
	// Seed is the run seed (cell streams derive from it per-slot).
	Seed uint64
	// Shard carries the group/worker split; the zero value picks
	// topology-default groups and GOMAXPROCS-bounded workers.
	Shard cellsim.ShardOptions
}

// RunCity validates the scenario, builds the scheme's per-cell admitter
// over the scenario's capacity map (dead cells included) and executes one
// sharded run. Results are bit-identical for any Shard.Workers value.
func RunCity(s *scenario.Scenario, run CityRun, opts Options) (cellsim.Result, error) {
	if err := s.Validate(); err != nil {
		return cellsim.Result{}, err
	}
	if run.Load < 0 {
		return cellsim.Result{}, fmt.Errorf("experiment: city %q: negative load %d", s.Name, run.Load)
	}
	cfg, err := s.ConfigFor(run.Load, run.Seed)
	if err != nil {
		return cellsim.Result{}, err
	}
	factory, err := ScenarioSchemeFactory(run.Scheme, s, opts)
	if err != nil {
		return cellsim.Result{}, err
	}
	adm := factory()
	if _, ok := adm.(cellsim.TopologyCompiler); !ok {
		return cellsim.Result{}, fmt.Errorf("experiment: city %q: scheme %s has no per-cell compiled state and cannot shard: %w",
			s.Name, run.Scheme, ErrSchemeNotApplicable)
	}
	res, err := cellsim.RunSharded(cfg, adm, run.Shard)
	if err != nil {
		return cellsim.Result{}, fmt.Errorf("experiment: city %q scheme %s: %w", s.Name, run.Scheme, err)
	}
	return res, nil
}

// RunEvalCity generates the standard ~1000-cell evaluation city
// (scenario.EvalCityParams) and runs it. This is the entry point behind
// the perf suite's city specs and facs-sim -city.
func RunEvalCity(run CityRun, opts Options) (cellsim.Result, error) {
	s, err := scenario.GenerateCity(scenario.EvalCityParams())
	if err != nil {
		return cellsim.Result{}, err
	}
	return RunCity(s, run, opts)
}
