package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"facsp/internal/experiment"
	"facsp/internal/scenario"
)

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "99"}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if err := run([]string{"-scenario", "no-such-scenario"}); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestRunUnknownMetric(t *testing.T) {
	if err := run([]string{"-scenario", "flash-crowd", "-metric", "latency"}); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestRunRejectsConflictingModeFlags(t *testing.T) {
	// An explicitly requested figure must not be silently discarded by
	// -scenario, and -metric means nothing in figure mode.
	if err := run([]string{"-fig", "7", "-scenario", "highway"}); err == nil {
		t.Error("-fig with -scenario accepted")
	}
	if err := run([]string{"-fig", "drops", "-metric", "ratio"}); err == nil {
		t.Error("-metric without -scenario accepted")
	}
}

func TestRunScenarioFromBadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema": 1, "name": "bad", "capacity_bu": -1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path}); err == nil {
		t.Error("invalid scenario file accepted")
	}
}

func TestRunNamedScenarioWritesCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	path := filepath.Join(t.TempDir(), "flash.csv")
	err := run([]string{
		"-scenario", "flash-crowd",
		"-metric", "drops",
		"-loads", "8",
		"-reps", "2",
		"-no-chart",
		"-csv", path,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, scheme := range []string{"FACS-P", "FACS", "SCC", "guard-channel", "adapt", "adapt-fuzzy", "optimal"} {
		if !strings.Contains(out, scheme) {
			t.Errorf("scenario CSV missing scheme %s:\n%s", scheme, out)
		}
	}
}

func TestRunScenarioFileMatchesEmbedded(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	// The same scenario run via the library name and via a JSON file on
	// disk must produce identical curves: files are first-class citizens.
	embedded, err := scenario.Load("stadium-hotspot")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(embedded)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stadium.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	opts := experiment.Options{Loads: []int{6}, Replications: 2, Workers: 4}
	fromName, err := experiment.RunScenario(embedded, opts)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := loadScenarioArg(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := experiment.RunScenario(fromFile, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromName, got) {
		t.Error("file-loaded scenario curves differ from embedded scenario curves")
	}
}

func TestListScenarios(t *testing.T) {
	var buf bytes.Buffer
	if err := printScenarios(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range scenario.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("-list-scenarios output missing %q:\n%s", name, out)
		}
	}
}

// TestDocCommentMatchesRegistries diffs this command's package
// documentation against the live registries: every figure id and every
// named scenario must be mentioned, so the usage text cannot drift from
// the code (the bug class this test was added for).
func TestDocCommentMatchesRegistries(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src[:bytes.Index(src, []byte("package main"))])
	for _, id := range experiment.FigureIDs() {
		if !strings.Contains(doc, id) {
			t.Errorf("facs-sim doc comment does not mention figure id %q", id)
		}
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(doc, name) {
			t.Errorf("facs-sim doc comment does not mention scenario %q", name)
		}
	}
	for _, id := range experiment.SchemeIDs() {
		if !strings.Contains(doc, id) {
			t.Errorf("facs-sim doc comment does not mention scheme id %q", id)
		}
	}
	for _, flagName := range []string{
		"-scenario", "-list-scenarios", "-metric", "-fig", "-csv", "-workers", "-surface",
		"-generate-city", "-city", "-city-scheme", "-city-load", "-city-groups", "-city-workers",
		"-city-radius", "-city-seed", "-city-name", "-leaderboard", "-gate",
	} {
		if !strings.Contains(doc, flagName) {
			t.Errorf("facs-sim doc comment does not mention flag %q", flagName)
		}
	}
}

func TestRunBadLoads(t *testing.T) {
	if err := run([]string{"-fig", "10", "-loads", "x"}); err == nil {
		t.Error("bad loads accepted")
	}
}

func TestRunWritesCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fig10.csv")
	err := run([]string{
		"-fig", "10",
		"-loads", "10,50",
		"-reps", "2",
		"-no-chart",
		"-csv", path,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.HasPrefix(out, "series,x,y\n") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if !strings.Contains(out, "FACS-P (proposed)") {
		t.Errorf("CSV missing FACS-P rows:\n%s", out)
	}
	// 2 curves x 2 loads + header = 5 lines.
	if got := strings.Count(out, "\n"); got != 5 {
		t.Errorf("CSV has %d lines, want 5:\n%s", got, out)
	}
}

func TestGenerateCityEmitsValidScenario(t *testing.T) {
	var buf bytes.Buffer
	if err := generateCity(&buf, "", 0, 0); err != nil {
		t.Fatal(err)
	}
	s, err := scenario.FromJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("generated city does not parse back: %v", err)
	}
	if s.Schema != scenario.SchemaVersion || s.Topology == nil {
		t.Errorf("generated city schema=%d topology=%v", s.Schema, s.Topology)
	}
	if err := generateCity(io.Discard, "", 1, 0); err == nil {
		t.Error("bad -city-radius accepted")
	}
}

func TestRunCityMode(t *testing.T) {
	var buf bytes.Buffer
	err := runCity(&buf, "metro-city", "guard", 4, 8, 2, 1, experiment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"222 cells", "8 groups", "2 workers", "simulated calls/s", "class video"} {
		if !strings.Contains(out, want) {
			t.Errorf("city report missing %q:\n%s", want, out)
		}
	}
}

func TestRunCityRejectsWorkerOverflow(t *testing.T) {
	err := run([]string{"-city", "metro-city", "-city-groups", "4", "-city-workers", "9"})
	if err == nil {
		t.Fatal("9 workers over 4 groups accepted")
	}
	if !strings.Contains(err.Error(), "-city-workers") {
		t.Errorf("error %q does not name the flag", err)
	}
}

func TestRunCityRejectsSCCScheme(t *testing.T) {
	if err := run([]string{"-city", "metro-city", "-city-scheme", "scc", "-city-load", "2"}); err == nil {
		t.Error("network-level scc accepted for a sharded city run")
	}
}

func TestLeaderboardFlagValidation(t *testing.T) {
	if err := run([]string{"-gate", "1"}); err == nil {
		t.Error("-gate without -leaderboard accepted")
	}
	if err := run([]string{"-leaderboard", "-fig", "10"}); err == nil {
		t.Error("-leaderboard with -fig accepted")
	}
	if err := run([]string{"-leaderboard", "-city", "metro-city"}); err == nil {
		t.Error("-leaderboard with -city accepted")
	}
}

// TestRunLeaderboardsReportsEveryScenario drives the leaderboard mode at a
// reduced sweep and checks the report covers every ring scenario and every
// scheme, with the gate line present when gating is on.
func TestRunLeaderboardsReportsEveryScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	var buf bytes.Buffer
	opts := experiment.Options{Loads: []int{8}, Replications: 1, SurfaceResolution: 33}
	if err := runLeaderboards(&buf, opts, 50); err != nil {
		t.Fatalf("runLeaderboards: %v", err)
	}
	out := buf.String()
	for _, name := range experiment.RingScenarioNames() {
		if !strings.Contains(out, "scenario "+name) {
			t.Errorf("leaderboard report missing scenario %q:\n%s", name, out)
		}
	}
	for _, id := range experiment.SchemeIDs() {
		if !strings.Contains(out, id) {
			t.Errorf("leaderboard report missing scheme %q:\n%s", id, out)
		}
	}
	if !strings.Contains(out, "gate: optimal is a floor") {
		t.Errorf("leaderboard report missing gate line:\n%s", out)
	}
}

func TestCityModeExclusivity(t *testing.T) {
	if err := run([]string{"-city", "metro-city", "-fig", "10"}); err == nil {
		t.Error("-city with -fig accepted")
	}
	if err := run([]string{"-generate-city", "-scenario", "highway"}); err == nil {
		t.Error("-generate-city with -scenario accepted")
	}
	if err := run([]string{"-generate-city", "-city", "metro-city"}); err == nil {
		t.Error("-generate-city with -city accepted")
	}
}
