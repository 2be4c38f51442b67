package experiment

import (
	"errors"
	"reflect"
	"testing"

	"facsp/internal/cac"
	"facsp/internal/scenario"
)

func scenarioOpts(workers int) Options {
	return Options{Loads: []int{6}, Replications: 2, Workers: workers, BaseSeed: 17}
}

// TestScenariosDeterministicAcrossWorkerCounts is the scenario half of the
// sharded-runner contract: for every named scenario of the library the
// full scheme ranking is bit-identical whether it runs on 1 worker or
// many.
func TestScenariosDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, err := scenario.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			base, err := RunScenario(s, scenarioOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(base) == 0 {
				t.Fatal("no curves")
			}
			for _, workers := range []int{4, 8} {
				got, err := RunScenario(s, scenarioOpts(workers))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(base, got) {
					t.Errorf("%s with %d workers differs from 1 worker", name, workers)
				}
			}
		})
	}
}

func TestRunScenarioSkipsSCCOnHeterogeneousCapacity(t *testing.T) {
	// diurnal-city has a dead cell (capacity 0), so the network-level SCC
	// scheme cannot represent it and must be skipped; every per-cell
	// scheme still runs.
	s, err := scenario.Load("diurnal-city")
	if err != nil {
		t.Fatal(err)
	}
	if s.UniformCapacity() {
		t.Fatal("diurnal-city is expected to have a dead cell")
	}
	curves, err := RunScenario(s, scenarioOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, c := range curves {
		names[c.Name] = true
	}
	if names["SCC"] {
		t.Error("SCC ranked on a heterogeneous-capacity scenario")
	}
	for _, want := range []string{"FACS", "FACS-P", "guard-channel", "adapt", "adapt-fuzzy", "optimal"} {
		if !names[want] {
			t.Errorf("scheme %s missing from the ranking (have %v)", want, curves)
		}
	}
	if _, err := ScenarioSchemeFactory("scc", s, Options{}); !errors.Is(err, ErrSchemeNotApplicable) {
		t.Errorf("scc factory error = %v, want ErrSchemeNotApplicable", err)
	}
}

func TestRunScenarioIncludesSCCOnUniformCapacity(t *testing.T) {
	s, err := scenario.Load("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	curves, err := RunScenario(s, scenarioOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if want, got := len(SchemeIDs()), len(curves); want != got {
		t.Fatalf("ranked %d schemes, want all %d", got, want)
	}
}

func TestScenarioSchemeFactoryUnknown(t *testing.T) {
	s, err := scenario.Load("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScenarioSchemeFactory("bogus", s, Options{}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestRunScenarioRejectsNegativeLoad(t *testing.T) {
	s, err := scenario.Load("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	opts := scenarioOpts(2)
	opts.Loads = []int{5, -1}
	if _, err := RunScenario(s, opts); err == nil {
		t.Error("negative load accepted")
	}
}

func TestSchemeIDsSorted(t *testing.T) {
	ids := SchemeIDs()
	if len(ids) != len(schemeNames) {
		t.Fatalf("SchemeIDs returned %d ids, registry has %d", len(ids), len(schemeNames))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ids not sorted: %v", ids)
		}
	}
	for _, id := range ids {
		if schemeNames[id] == "" {
			t.Errorf("scheme %s has no display name", id)
		}
	}
}

// TestDeadCellAdmitsNothing pins the dead-cell controller contract the
// scenario capacity map relies on.
func TestDeadCellAdmitsNothing(t *testing.T) {
	var d deadCell
	req := cac.Request{ID: 1, Bandwidth: 10}
	if dec := d.Admit(req); dec.Accept {
		t.Error("dead cell accepted a request")
	}
	if err := d.Release(req); err == nil {
		t.Error("dead cell released without error")
	}
	if d.Capacity() != 0 || d.Occupancy() != 0 {
		t.Error("dead cell reports non-zero capacity or occupancy")
	}
}
