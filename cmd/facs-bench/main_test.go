package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"facsp/internal/perf"
)

func TestRunRejectsBadFlags(t *testing.T) {
	for _, tt := range []struct {
		name string
		args []string
		want string
	}{
		{name: "bad-suite", args: []string{"-suite", "nope"}, want: "unknown suite"},
		{name: "bad-loads", args: []string{"-loads", "10,x"}, want: "bad load"},
		{name: "negative-load", args: []string{"-loads", "-5"}, want: "negative load"},
		{name: "zero-reps", args: []string{"-reps", "0"}, want: "-reps"},
		{name: "negative-workers", args: []string{"-workers", "-1"}, want: "-workers"},
		{name: "surface-one", args: []string{"-surface", "1"}, want: "-surface"},
		{name: "bad-benchtime", args: []string{"-benchtime", "-1s"}, want: "-benchtime"},
		{name: "bad-filter", args: []string{"-filter", "["}, want: "bad filter"},
		{name: "positional", args: []string{"extra"}, want: "unexpected arguments"},
		{name: "no-specs", args: []string{"-filter", "^matches-nothing$"}, want: "no specs"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			err := run(tt.args)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("run(%v) error = %v, want mention of %q", tt.args, err, tt.want)
			}
		})
	}
}

// TestRunEmitsValidReport measures one cheap spec with a tiny time budget
// and checks the emitted BENCH.json parses and carries the environment.
func TestRunEmitsValidReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	err := run([]string{
		"-suite", "full",
		"-filter", "^micro/des/schedule$",
		"-benchtime", "10ms",
		"-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := perf.ReadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "micro/des/schedule" {
		t.Fatalf("report results = %+v", rep.Results)
	}
	if rep.Results[0].NsPerOp <= 0 || rep.GoVersion == "" || rep.CPUs < 1 {
		t.Errorf("implausible report: %+v", rep)
	}
}

// TestGateFailsOnRegression pins the CI contract: a spec more than
// -max-regress slower than its baseline (relative to the suite's median
// hardware scale) fails the gate, BENCH_GATE=off downgrades the failure to
// a report, an allocs/op explosion fails on its own, and a baseline spec
// that was not measured fails too. The suite is measured once through run
// (the CLI path); every gate verdict below then compares fixed reports
// derived from that one measurement, so host timing noise cannot decide
// the outcome.
func TestGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH.json")
	// Three cheap micro specs: enough peers for the median normalization
	// to anchor on the two unchanged ones.
	if err := run([]string{
		"-suite", "full",
		"-filter", "^micro/(des/schedule|flc1/exact|flc2/exact)$",
		"-benchtime", "10ms",
		"-out", out,
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := perf.ReadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("measured %d specs, want 3", len(rep.Results))
	}
	clone := func() *perf.Report {
		c := *rep
		c.Results = append([]perf.Result(nil), rep.Results...)
		return &c
	}
	const maxRegress = 0.30    // the -max-regress default
	t.Setenv("BENCH_GATE", "") // the gate verdicts below must not inherit an override
	baseline := filepath.Join(dir, "BENCH_baseline.json")
	gateAgainst := func(base, current *perf.Report) error {
		t.Helper()
		writeReport(t, baseline, base)
		return gate(baseline, current, maxRegress)
	}
	wantFailure := func(err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("gate error = %v, want %q", err, want)
		}
	}

	// A report gated against itself is clean.
	if err := gateAgainst(rep, rep); err != nil {
		t.Fatalf("gate failed against its own measurement: %v", err)
	}

	// A 2x slowdown of one spec (its baseline claims it used to run twice
	// as fast): the median scale stays 1, so the spec regresses.
	fast := clone()
	fast.Results[0].NsPerOp /= 2
	wantFailure(gateAgainst(fast, rep), "1 regression(s), 0 missing")

	// The documented override downgrades the same comparison.
	t.Setenv("BENCH_GATE", "off")
	if err := gateAgainst(fast, rep); err != nil {
		t.Fatalf("BENCH_GATE=off still failed: %v", err)
	}
	t.Setenv("BENCH_GATE", "")

	// An allocs/op explosion fails at identical ns/op: the
	// hardware-independent half of the gate.
	bloated := clone()
	bloated.Results[1].AllocsPerOp = rep.Results[1].AllocsPerOp + 100
	wantFailure(gateAgainst(rep, bloated), "1 regression(s), 0 missing")

	// A gated spec missing from the measurement fails as well.
	gone := clone()
	gone.Results = append(gone.Results, perf.Result{Name: "micro/never-measured", NsPerOp: 1})
	wantFailure(gateAgainst(gone, rep), "0 regression(s), 1 missing")
}

func writeReport(t *testing.T, path string, r *perf.Report) {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
