package experiment

import (
	"errors"
	"fmt"
	"sort"

	"facsp/internal/cellsim"
	"facsp/internal/optimal"
	"facsp/internal/scenario"
)

// The leaderboard ranks every scheme on a scenario by one weighted
// drop/block objective and reports each scheme's regret against the
// value-iteration optimal policy. The objective charges the three ways a
// scheme can fail its users, in the cost ratio of the optimal policy's own
// model:
//
//	J = DropWeight·drop% + block% + (100 − bandwidth-ratio%)
//
// Dropping an on-going call costs optimal.DropWeight times a refused new
// one (the paper's priority), and the degradation shortfall charges the
// adaptive schemes the QoS they take from admitted calls to keep drops
// low — without it, squeezing every on-going call to its floor would look
// free and no fixed-allocation policy could be a bound.

// Objective computes the weighted drop/block objective for one run.
func Objective(r cellsim.Result) float64 {
	return optimal.DropWeight*r.DropPct() + (100 - r.AcceptedPct()) + (100 - 100*r.BandwidthRatio())
}

// LeaderboardEntry is one scheme's row on a scenario leaderboard.
type LeaderboardEntry struct {
	// ID and Name are the scheme id and display name.
	ID   string
	Name string
	// Objective is the weighted drop/block objective J, averaged over the
	// sweep's load points; CI95 is the mean per-load 95% half-width.
	Objective float64
	CI95      float64
	// Drop is the drop% component averaged over load points; DropCI95 its
	// mean per-load 95% half-width.
	Drop     float64
	DropCI95 float64
	// Regret is Objective minus the optimal policy's Objective on the same
	// scenario and seeds: the price of the heuristic, ~0 for the optimum
	// itself.
	Regret float64
}

// Leaderboard is the per-scenario ranking with regret against the
// computed optimum.
type Leaderboard struct {
	Scenario string
	Loads    []int
	// Entries are sorted by Objective, best (lowest) first.
	Entries []LeaderboardEntry
}

// RingScenarioNames returns the embedded schema-1 (ring topology)
// scenarios the leaderboard covers, in sorted order; the city-scale
// schema-2 scenarios run on the sharded city engine and are ranked
// separately (SCENARIOS.md).
func RingScenarioNames() []string {
	var names []string
	for _, name := range scenario.Names() {
		s, err := scenario.Load(name)
		if err != nil {
			panic("experiment: embedded scenario " + name + ": " + err.Error())
		}
		if s.Schema == scenario.SchemaV1 {
			names = append(names, name)
		}
	}
	return names
}

// RunLeaderboard ranks every applicable scheme on the scenario by the
// weighted objective and computes regret against the optimal policy.
// Seeds derive from opts exactly as in RunScenarioMetric, so the ranking
// is bit-identical for any worker count.
func RunLeaderboard(s *scenario.Scenario, opts Options) (*Leaderboard, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg := ScenarioConfigFunc(s)
	o := opts.withDefaults()
	lb := &Leaderboard{Scenario: s.Name, Loads: o.Loads}
	for _, id := range SchemeIDs() {
		factory, err := ScenarioSchemeFactory(id, s, opts)
		if err == nil {
			entry, err2 := leaderboardEntry(id, cfg, factory, opts)
			if err2 != nil {
				return nil, fmt.Errorf("experiment: leaderboard %q scheme %s: %w", s.Name, id, err2)
			}
			lb.Entries = append(lb.Entries, entry)
			continue
		}
		if errors.Is(err, ErrSchemeNotApplicable) {
			continue
		}
		return nil, err
	}
	var opt *LeaderboardEntry
	for i := range lb.Entries {
		if lb.Entries[i].ID == "optimal" {
			opt = &lb.Entries[i]
		}
	}
	if opt == nil {
		return nil, fmt.Errorf("experiment: leaderboard %q ran without the optimal scheme", s.Name)
	}
	base := opt.Objective
	for i := range lb.Entries {
		lb.Entries[i].Regret = lb.Entries[i].Objective - base
	}
	sort.SliceStable(lb.Entries, func(i, j int) bool {
		return lb.Entries[i].Objective < lb.Entries[j].Objective
	})
	return lb, nil
}

// leaderboardEntry sweeps one scheme twice over the same deterministic
// seeds — once for the objective, once for its drop component — and
// averages across load points.
func leaderboardEntry(id string, cfg ConfigFunc, factory AdmitterFactory, opts Options) (LeaderboardEntry, error) {
	obj, err := RunCurve(schemeNames[id], cfg, factory, Objective, opts)
	if err != nil {
		return LeaderboardEntry{}, err
	}
	drop, err := RunCurve(schemeNames[id], cfg, factory, DropPct, opts)
	if err != nil {
		return LeaderboardEntry{}, err
	}
	e := LeaderboardEntry{ID: id, Name: schemeNames[id]}
	e.Objective, e.CI95 = meanAndCI(obj)
	e.Drop, e.DropCI95 = meanAndCI(drop)
	return e, nil
}

func meanAndCI(c Curve) (mean, ci float64) {
	n := len(c.Points)
	if n == 0 {
		return 0, 0
	}
	for i, p := range c.Points {
		mean += p.Y
		ci += c.CI95[i]
	}
	return mean / float64(n), ci / float64(n)
}

// GateOptimalFloor asserts that no scheme's weighted objective — and no
// fixed-allocation scheme's drop metric — beats the optimal policy's by
// more than the combined 95% confidence half-widths plus slack (in
// percentage points). That is all it proves: the policy is solved for a
// single cell with exogenous handoffs, so under mobility it is a
// calibrated reference, not a bound.
// The adaptive schemes are exempt from the drop-only check: they buy low
// drops by degrading admitted calls mid-call, which the model's
// fixed-allocation action space cannot represent; the objective check,
// which charges that shortfall, still binds them.
func (lb *Leaderboard) GateOptimalFloor(slack float64) error {
	var opt *LeaderboardEntry
	for i := range lb.Entries {
		if lb.Entries[i].ID == "optimal" {
			opt = &lb.Entries[i]
		}
	}
	if opt == nil {
		return fmt.Errorf("experiment: leaderboard %q has no optimal entry", lb.Scenario)
	}
	for _, e := range lb.Entries {
		if e.ID == "optimal" {
			continue
		}
		noise := e.CI95 + opt.CI95 + slack
		if e.Objective < opt.Objective-noise {
			return fmt.Errorf("experiment: leaderboard %q: scheme %s objective %.2f beats optimal %.2f beyond noise %.2f",
				lb.Scenario, e.ID, e.Objective, opt.Objective, noise)
		}
		if degrades(e.ID) {
			continue
		}
		dropNoise := e.DropCI95 + opt.DropCI95 + slack
		if e.Drop < opt.Drop-dropNoise {
			return fmt.Errorf("experiment: leaderboard %q: scheme %s drop%% %.2f beats optimal %.2f beyond noise %.2f",
				lb.Scenario, e.ID, e.Drop, opt.Drop, dropNoise)
		}
	}
	return nil
}

// degrades reports whether the scheme serves admitted calls below their
// requested bandwidth (the adaptive schemes).
func degrades(id string) bool { return id == "adapt" || id == "adapt-fuzzy" }
