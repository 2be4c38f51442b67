package perf

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestRegistryNamesUniqueAndStable(t *testing.T) {
	a, b := Specs(), Specs()
	if len(a) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for i, s := range a {
		if s.Name == "" || s.New == nil {
			t.Fatalf("spec %d incomplete: %+v", i, s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate spec name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Name != b[i].Name {
			t.Fatalf("registry order unstable at %d: %q vs %q", i, s.Name, b[i].Name)
		}
		if !strings.HasPrefix(s.Name, "micro/") && !strings.HasPrefix(s.Name, "sweep/") &&
			!strings.HasPrefix(s.Name, "city/") && !strings.HasPrefix(s.Name, "server/") &&
			!strings.HasPrefix(s.Name, "scheme/") {
			t.Errorf("spec %q outside the micro/, sweep/, city/, server/ and scheme/ namespaces", s.Name)
		}
	}
}

func TestSmokeSpecsAreSubset(t *testing.T) {
	smoke := SmokeSpecs()
	if len(smoke) == 0 {
		t.Fatal("empty smoke suite")
	}
	if len(smoke) >= len(Specs()) {
		t.Fatalf("smoke suite (%d specs) is not a reduced subset of the registry (%d)", len(smoke), len(Specs()))
	}
	names := map[string]bool{}
	for _, s := range Specs() {
		names[s.Name] = true
	}
	for _, s := range smoke {
		if !names[s.Name] {
			t.Errorf("smoke spec %q missing from the full registry", s.Name)
		}
	}
	// The tentpole's headline measurement must be gated.
	found := false
	for _, s := range smoke {
		if s.Name == "sweep/adapt-drops/surface" {
			found = true
		}
	}
	if !found {
		t.Error("smoke suite does not gate sweep/adapt-drops/surface")
	}
	// The sharded city engine must be gated too (its reduced variant).
	found = false
	for _, s := range smoke {
		if s.Name == "city/metro/guard" {
			found = true
		}
	}
	if !found {
		t.Error("smoke suite does not gate city/metro/guard")
	}
}

func TestFilter(t *testing.T) {
	out, err := Filter(Specs(), "^micro/admit/")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("filter matched nothing")
	}
	for _, s := range out {
		if !strings.HasPrefix(s.Name, "micro/admit/") {
			t.Errorf("filter leaked %q", s.Name)
		}
	}
	if _, err := Filter(Specs(), "["); err == nil {
		t.Error("bad regexp accepted")
	}
}

// TestMeasureMicroSpec runs one cheap spec end to end through the
// measurement engine.
func TestMeasureMicroSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("timing loop")
	}
	specs, err := Filter(Specs(), "^micro/des/schedule$")
	if err != nil || len(specs) != 1 {
		t.Fatalf("Filter = %v specs, err %v", len(specs), err)
	}
	r, err := specs[0].Measure(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "micro/des/schedule" || r.Iterations < 1 || r.NsPerOp <= 0 {
		t.Errorf("implausible result %+v", r)
	}
	if r.SimCallsPerSec != 0 {
		t.Errorf("micro spec reported sim calls: %+v", r)
	}
}

// TestMeasureSweepSpecCountsCalls pins the simulated-calls accounting:
// the reduced fig10/facsp sweep at load 100 offers 700 network-wide
// calls per op (7 homogeneous cells x 100 requests).
func TestMeasureSweepSpecCountsCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	specs, err := Filter(Specs(), "^sweep/fig10/facsp$")
	if err != nil || len(specs) != 1 {
		t.Fatalf("Filter = %v specs, err %v", len(specs), err)
	}
	r, err := specs[0].Measure(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.SimCallsPerSec <= 0 {
		t.Fatalf("sweep spec reported no throughput: %+v", r)
	}
	perOp := r.SimCallsPerSec * r.NsPerOp / 1e9
	if perOp < 699 || perOp > 701 {
		t.Errorf("calls per op = %.1f, want 700", perOp)
	}
}

// TestCitySmokeAllocsIndependentOfGOMAXPROCS pins the gate's
// host-independence for the sharded city smoke spec: its allocs/op must
// not scale with the core count of the runner, or a baseline recorded on
// one machine fails the allocs/op gate on another. Both settings count
// the same ops (seeds 1-6): op i simulates seed i, whose allocation count
// differs from other seeds', so a time-budgeted Measure, whose op count
// depends on the host's speed at the moment, would compare different
// seed sets.
func TestCitySmokeAllocsIndependentOfGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("city simulation")
	}
	specs, err := Filter(Specs(), "^city/metro/guard$")
	if err != nil || len(specs) != 1 {
		t.Fatalf("Filter = %v specs, err %v", len(specs), err)
	}
	body, err := specs[0].New()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const ops = 6
	allocs := make(map[int]float64)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		// Warm up at this setting: the first runs after a GOMAXPROCS
		// change also count the runtime's one-time per-P allocations.
		if _, err := body(ops); err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if _, err := body(ops); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		allocs[procs] = float64(m1.Mallocs-m0.Mallocs) / ops
	}
	t.Logf("allocs/op: %.1f at GOMAXPROCS=1, %.1f at GOMAXPROCS=4", allocs[1], allocs[4])
	if d := allocs[4] - allocs[1]; d > allocSlack || d < -allocSlack {
		t.Errorf("allocs/op %.1f at GOMAXPROCS=1 vs %.1f at GOMAXPROCS=4: differ by more than %d",
			allocs[1], allocs[4], allocSlack)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := NewReport("smoke", []Result{{Name: "micro/x", Iterations: 3, NsPerOp: 42}})
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema || len(back.Results) != 1 || back.Results[0].NsPerOp != 42 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.GoVersion == "" || back.GOOS == "" || back.CPUs < 1 {
		t.Errorf("missing environment metadata: %+v", back)
	}
}

func TestCompare(t *testing.T) {
	base := &Report{Schema: 1, Results: []Result{
		{Name: "a", NsPerOp: 100, AllocsPerOp: 10},
		{Name: "b", NsPerOp: 100},
		{Name: "c", NsPerOp: 100},
		{Name: "d", NsPerOp: 100, AllocsPerOp: 10},
		{Name: "gone", NsPerOp: 100},
	}}
	cur := &Report{Schema: 1, Results: []Result{
		{Name: "a", NsPerOp: 129, AllocsPerOp: 10}, // +29%: inside the 30% tolerance
		{Name: "b", NsPerOp: 250},                  // +150%: ns/op regression
		{Name: "c", NsPerOp: 100},
		{Name: "d", NsPerOp: 100, AllocsPerOp: 40}, // 4x allocs: allocs/op regression
		{Name: "new", NsPerOp: 1},                  // not in baseline: ignored
	}}
	cmp := Compare(base, cur, 0.30)
	if cmp.Scale < 0.99 || cmp.Scale > 1.30 {
		t.Errorf("scale = %v, want ~1 (median of mostly-stable specs)", cmp.Scale)
	}
	if len(cmp.Regressions) != 2 {
		t.Fatalf("regressions = %+v, want exactly b (ns/op) and d (allocs/op)", cmp.Regressions)
	}
	if cmp.Regressions[0].Name != "b" || cmp.Regressions[0].Metric != "ns/op" {
		t.Errorf("regression[0] = %+v, want b ns/op", cmp.Regressions[0])
	}
	if cmp.Regressions[1].Name != "d" || cmp.Regressions[1].Metric != "allocs/op" {
		t.Errorf("regression[1] = %+v, want d allocs/op", cmp.Regressions[1])
	}
	if len(cmp.Missing) != 1 || cmp.Missing[0] != "gone" {
		t.Errorf("missing = %v, want [gone]", cmp.Missing)
	}
}

// TestCompareNormalizesHardwareDelta pins the cross-machine contract: a
// uniform ns/op shift (the baseline came from a slower or faster
// machine) is absorbed into Scale, while a spec that regressed relative
// to its peers still fails.
func TestCompareNormalizesHardwareDelta(t *testing.T) {
	base := &Report{Schema: 1, Results: []Result{
		{Name: "a", NsPerOp: 100},
		{Name: "b", NsPerOp: 200},
		{Name: "c", NsPerOp: 300},
	}}
	// This machine is uniformly 2x slower than the baseline machine.
	uniform := &Report{Schema: 1, Results: []Result{
		{Name: "a", NsPerOp: 200},
		{Name: "b", NsPerOp: 400},
		{Name: "c", NsPerOp: 600},
	}}
	cmp := Compare(base, uniform, 0.30)
	if len(cmp.Regressions) != 0 {
		t.Errorf("uniform 2x shift flagged as regressions: %+v", cmp.Regressions)
	}
	if cmp.Scale < 1.99 || cmp.Scale > 2.01 {
		t.Errorf("scale = %v, want 2", cmp.Scale)
	}
	// Same hardware delta, but spec c regressed 2x on top of it.
	relative := &Report{Schema: 1, Results: []Result{
		{Name: "a", NsPerOp: 200},
		{Name: "b", NsPerOp: 400},
		{Name: "c", NsPerOp: 1200},
	}}
	cmp = Compare(base, relative, 0.30)
	if len(cmp.Regressions) != 1 || cmp.Regressions[0].Name != "c" {
		t.Fatalf("regressions = %+v, want exactly c", cmp.Regressions)
	}
}

// TestCompareAnchorsScaleOnMicroSpecs pins the anti-masking property: a
// regression that co-moves the majority of sweep specs must not shift
// the hardware scale (which is anchored on the micro specs) and hide
// itself.
func TestCompareAnchorsScaleOnMicroSpecs(t *testing.T) {
	base := &Report{Schema: 1, Results: []Result{
		{Name: "micro/a", NsPerOp: 100},
		{Name: "sweep/b", NsPerOp: 100},
		{Name: "sweep/c", NsPerOp: 100},
	}}
	cur := &Report{Schema: 1, Results: []Result{
		{Name: "micro/a", NsPerOp: 100},
		{Name: "sweep/b", NsPerOp: 200}, // the whole sweep path regressed 2x;
		{Name: "sweep/c", NsPerOp: 200}, // an all-spec median would absorb it
	}}
	cmp := Compare(base, cur, 0.30)
	if cmp.Scale < 0.99 || cmp.Scale > 1.01 {
		t.Errorf("scale = %v, want 1 (anchored on micro/a)", cmp.Scale)
	}
	if len(cmp.Regressions) != 2 {
		t.Fatalf("regressions = %+v, want both sweep specs", cmp.Regressions)
	}
}
