// Command facs-sim regenerates the paper's evaluation figures and runs
// declarative scenarios (SCENARIOS.md) that take the schemes beyond the
// paper's homogeneous set-up.
//
// Usage:
//
//	facs-sim -fig 10                 # ASCII chart of Fig. 10 to stdout
//	facs-sim -fig 7 -csv fig7.csv    # also write tidy CSV
//	facs-sim -fig all -reps 30       # every figure, 30 seeds per point
//	facs-sim -fig drops              # the QoS (call-dropping) experiment
//	facs-sim -fig adapt-drops        # adaptive bandwidth vs FACS-P vs guard
//	facs-sim -fig adapt-ratio        # the degradation-ratio price it pays
//	facs-sim -fig 10 -workers 16     # shard the sweep over 16 workers
//	facs-sim -fig 10 -surface 33     # precomputed decision surfaces
//	facs-sim -list-scenarios         # the named scenario library
//	facs-sim -scenario flash-crowd   # rank every scheme on a scenario
//	facs-sim -scenario highway -metric drops   # ... on dropped-call %
//	facs-sim -scenario my-city.json  # run your own scenario file
//	facs-sim -leaderboard            # regret-vs-optimal ranking, all ring scenarios
//	facs-sim -leaderboard -gate 1    # ... and fail if a scheme beats optimal beyond noise
//	facs-sim -generate-city > c.json           # emit a synthetic city
//	facs-sim -generate-city -city-radius 18    # ... at ~1000 cells
//	facs-sim -city metro-city                  # one sharded city run
//	facs-sim -city c.json -city-workers 8      # ... across 8 workers
//
// Figures: 7 (FACS vs SCC), 8 (FACS-P by speed), 9 (FACS-P by angle),
// 10 (FACS-P vs FACS), drops (dropped-call percentage, FACS-P vs FACS),
// adapt-drops (dropped-call percentage, adapt/adapt-fuzzy vs FACS-P vs
// guard-channel), adapt-ratio (mean received/requested bandwidth of the
// adaptive schemes), plus the ablation-handoff and ablation-defuzz
// sensitivity studies. The usage string derives the list from
// experiment.FigureIDs, and a test diffs this comment against it.
//
// Scenarios (-scenario, -list-scenarios) are declarative workload
// descriptions — heterogeneous per-cell load and capacity, time-varying
// and bursty arrivals, mobility mixes — documented in SCENARIOS.md. A
// scenario run ranks every scheme (facs, facsp, scc, guard, adapt,
// adapt-fuzzy, optimal) on the same sweep; -metric picks the y
// axis: accepted (acceptance %), drops (dropped-call %), or ratio
// (received/requested bandwidth %). The named library holds flash-crowd,
// stadium-hotspot, highway, diurnal-city and metro-city; -scenario also
// accepts a path to your own JSON file (any argument containing a path
// separator or ending in .json).
//
// -leaderboard ranks every scheme on each embedded ring scenario by the
// weighted drop/block objective J = 10·drop% + block% + degradation
// shortfall (the cost ratio of the value-iteration optimal policy's own
// model) and prints each scheme's regret against that computed optimum.
// -gate S additionally fails the run if any scheme beats the optimal
// policy's objective — or any fixed-allocation scheme beats its drop
// metric — by more than the combined 95% confidence half-widths plus S
// percentage points; CI runs this as the leaderboard job.
//
// City-scale runs (-city, -generate-city) use the multi-cluster topology
// support (scenario schema 2) and the cell-group-sharded engine.
// -generate-city emits a parameterised synthetic city — downtown core,
// suburb band, arterial highways, stadium hotspots, dead zones — as
// scenario JSON on stdout (-city-radius, -city-seed, -city-name). -city
// runs ONE simulation of a scenario (name or file) sharded across
// worker-owned cell groups and prints its call accounting plus simulated
// calls per wall-clock second; -city-scheme picks the admission scheme
// (any per-cell scheme; scc cannot shard), -city-load scales the offered
// traffic, and -city-groups / -city-workers control the split. Workers
// own whole cell groups, so -city-workers above the group count is a
// usage error; the metrics are bit-identical for every worker count.
//
// Sweeps are sharded: every (load, replication) cell runs as an independent
// simulation with a deterministic RNG substream, so -workers changes only
// throughput — the curves are bit-identical for any worker count and seed,
// for figures and scenarios alike. -surface N trades a small, bounded
// quantization error for a much faster admission hot path (see
// EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"facsp/internal/experiment"
	"facsp/internal/hexgrid"
	"facsp/internal/optimal"
	"facsp/internal/plot"
	"facsp/internal/scenario"
	"facsp/internal/simflag"
	"facsp/internal/stats"
	"facsp/internal/traffic"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "facs-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("facs-sim", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "10", "figure to regenerate: "+figureList()+", or all")
		scen     = fs.String("scenario", "", "run a scenario instead of a figure: "+scenarioList()+", or a path to a scenario JSON file")
		listScen = fs.Bool("list-scenarios", false, "list the named scenarios and exit")
		leader   = fs.Bool("leaderboard", false, "rank every scheme on each embedded ring scenario by the weighted drop/block objective, with regret against the optimal policy")
		gate     = fs.Float64("gate", -1, "with -leaderboard: fail if any scheme beats the optimal policy by more than noise plus this slack in percentage points (negative: report only)")
		metricID = fs.String("metric", "accepted", "scenario y axis: accepted, drops, ratio")
		loads    = fs.String("loads", "", "comma-separated x axis, e.g. 10,25,50,100 (default: the paper grid)")
		reps     = fs.Int("reps", 20, "replications (seeds) per point")
		seed     = fs.Uint64("seed", 0, "base seed")
		workers  = fs.Int("workers", 0, "parallel shard workers (default GOMAXPROCS; any value yields identical curves)")
		surface  = fs.Int("surface", 0, "run controllers on precomputed decision surfaces with this per-axis resolution (0 = exact inference)")
		csvPath  = fs.String("csv", "", "also write tidy CSV to this path ('-' for stdout)")
		noChart  = fs.Bool("no-chart", false, "suppress the ASCII chart")
		withCI   = fs.Bool("ci", false, "print a per-point table with 95% confidence half-widths")

		genCity     = fs.Bool("generate-city", false, "emit a synthetic-city scenario as JSON on stdout and exit")
		cityRadius  = fs.Int("city-radius", 0, "generator: metro disk radius in cells (0 = default 8; 18 is ~1000 cells)")
		citySeed    = fs.Uint64("city-seed", 0, "generator: layout seed (0 = the default layout)")
		cityName    = fs.String("city-name", "", "generator: scenario name (default city)")
		city        = fs.String("city", "", "run ONE sharded city simulation of this scenario (library name or JSON path)")
		cityScheme  = fs.String("city-scheme", "facsp", "city: admission scheme (per-cell schemes only)")
		cityLoad    = fs.Int("city-load", 8, "city: per-unit-load requesting connections (each cell offers load x its multiplier)")
		cityGroups  = fs.Int("city-groups", 0, "city: cell-group count (0 = topology default); part of the run's identity, not a tuning knob")
		cityWorkers = fs.Int("city-workers", 0, "city: worker goroutines, at most the group count (0 = GOMAXPROCS capped)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	// A figure and a scenario are different experiments; an explicitly
	// requested -fig alongside -scenario must not be silently discarded,
	// and -metric only means something for scenario runs.
	if explicit["fig"] && *scen != "" {
		return fmt.Errorf("-fig and -scenario are mutually exclusive")
	}
	if explicit["metric"] && *scen == "" {
		return fmt.Errorf("-metric applies only to -scenario runs")
	}
	if explicit["gate"] && !*leader {
		return fmt.Errorf("-gate applies only to -leaderboard runs")
	}
	modes := 0
	for _, on := range []bool{explicit["fig"] || *scen != "", *genCity, *city != "", *leader} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-generate-city, -city, -leaderboard and figure/scenario sweeps are mutually exclusive")
	}

	if *listScen {
		return printScenarios(os.Stdout)
	}

	if *genCity {
		return generateCity(os.Stdout, *cityName, *cityRadius, *citySeed)
	}

	// Flag validation is shared with cmd/facs-bench (internal/simflag): an
	// invalid -loads/-reps/-workers/-surface fails here as a usage error
	// instead of a panic deep inside a sweep worker.
	opts, err := simflag.SweepOptions(*loads, *reps, *workers, *surface, *seed)
	if err != nil {
		return err
	}

	if *city != "" {
		return runCity(os.Stdout, *city, *cityScheme, *cityLoad, *cityGroups, *cityWorkers, *seed, opts)
	}

	if *leader {
		return runLeaderboards(os.Stdout, opts, *gate)
	}

	if *scen != "" {
		return runScenario(*scen, *metricID, opts, *csvPath, !*noChart, *withCI)
	}

	figures := experiment.Figures()
	var ids []string
	if *fig == "all" {
		ids = experiment.FigureIDs()
	} else {
		if figures[*fig] == nil {
			return fmt.Errorf("unknown figure %q (have %s, all)", *fig, figureList())
		}
		ids = []string{*fig}
	}

	for _, id := range ids {
		curves, err := figures[id](opts)
		if err != nil {
			return err
		}
		title, yLabel := figureChartMeta(id)
		if err := emit(id, title, yLabel, curves, *csvPath, !*noChart, *withCI); err != nil {
			return err
		}
	}
	return nil
}

// figureList returns the known figure identifiers, sorted, for usage and
// error text.
func figureList() string {
	return strings.Join(experiment.FigureIDs(), ", ")
}

// scenarioList returns the named scenarios of the embedded library, for
// usage and error text.
func scenarioList() string {
	return strings.Join(scenario.Names(), ", ")
}

// printScenarios writes the named scenario library with descriptions.
func printScenarios(w io.Writer) error {
	for _, name := range scenario.Names() {
		s, err := scenario.Load(name)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n    %s\n", s.Name, s.Description); err != nil {
			return err
		}
	}
	return nil
}

// loadScenarioArg resolves the -scenario argument: a path (anything with a
// path separator or a .json suffix) is read from disk, anything else from
// the embedded library.
func loadScenarioArg(arg string) (*scenario.Scenario, error) {
	if strings.ContainsAny(arg, `/\`) || strings.HasSuffix(arg, ".json") {
		return scenario.FromFile(arg)
	}
	return scenario.Load(arg)
}

// scenarioMetric maps the -metric flag to the experiment metric and its
// chart y label.
func scenarioMetric(id string) (experiment.Metric, string, error) {
	switch id {
	case "accepted":
		return experiment.AcceptedPct, "percentage of accepted calls", nil
	case "drops":
		return experiment.DropPct, "percentage of admitted calls dropped", nil
	case "ratio":
		return experiment.BandwidthRatioPct, "mean received/requested bandwidth (%)", nil
	default:
		return nil, "", fmt.Errorf("unknown metric %q (have accepted, drops, ratio)", id)
	}
}

// generateCity emits a synthetic-city scenario as JSON.
func generateCity(w io.Writer, name string, radius int, seed uint64) error {
	s, err := scenario.GenerateCity(scenario.CityParams{Name: name, MetroRadius: radius, Seed: seed})
	if err != nil {
		return err
	}
	data, err := s.JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// runCity executes one sharded city simulation and prints its call
// accounting. Unlike the sweep modes, this is a single run: the topology
// is partitioned into cell groups and workers own whole groups, so the
// wall clock drops with -city-workers while every metric stays
// bit-identical.
func runCity(w io.Writer, arg, scheme string, load, groups, workers int, seed uint64, opts experiment.Options) error {
	s, err := loadScenarioArg(arg)
	if err != nil {
		return err
	}
	if err := s.Validate(); err != nil {
		return err
	}
	// Validate the group/worker split at the flag boundary, against the
	// same topology the run will shard (a scenario without a topology
	// section shards its legacy rings disk).
	cfg, err := s.ConfigFor(load, seed)
	if err != nil {
		return err
	}
	topo := cfg.Topology
	if topo == nil {
		topo = hexgrid.DiskTopology(hexgrid.Coord{}, cfg.Rings)
	}
	shard, err := simflag.CityShard(groups, workers, topo)
	if err != nil {
		return err
	}
	resolvedGroups, resolvedWorkers, err := shard.Resolve(topo)
	if err != nil {
		return err
	}

	start := time.Now()
	res, err := experiment.RunCity(s, experiment.CityRun{
		Scheme: scheme, Load: load, Seed: seed, Shard: shard,
	}, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(w, "city %s: %d cells, %d groups, %d workers, scheme %s, load %d, seed %d\n",
		s.Name, topo.Cells(), resolvedGroups, resolvedWorkers, scheme, load, seed)
	fmt.Fprintf(w, "  new calls        %8d offered, %d accepted (%.1f%%), %d blocked\n",
		res.Requests, res.Accepted, pct(res.Accepted, res.Requests), res.Blocked)
	fmt.Fprintf(w, "  handoffs         %8d attempted, %d accepted (%.1f%%), %d calls dropped\n",
		res.HandoffAttempts, res.HandoffAccepted, pct(res.HandoffAccepted, res.HandoffAttempts), res.Dropped)
	fmt.Fprintf(w, "  call fates       %8d completed, %d left the network\n", res.Completed, res.LeftNetwork)
	for _, class := range traffic.Classes() {
		fmt.Fprintf(w, "  class %-10s %8d offered, %d accepted (%.1f%%)\n",
			class, res.RequestsByClass[class], res.AcceptedByClass[class],
			pct(res.AcceptedByClass[class], res.RequestsByClass[class]))
	}
	fmt.Fprintf(w, "  bandwidth        %12.1f BU*s granted / %.1f BU*s requested (%.1f%%)\n",
		res.BandwidthGranted, res.BandwidthRequested, 100*res.BandwidthRatio())
	fmt.Fprintf(w, "  centre cell      %12.1f BU mean occupancy\n", res.CentreUtilization)
	fmt.Fprintf(w, "  wall clock       %12v  (%.0f simulated calls/s)\n",
		elapsed.Round(time.Millisecond), float64(res.NetworkRequests)/elapsed.Seconds())
	return nil
}

// pct is a safe percentage for report lines.
func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// runLeaderboards ranks every scheme on each embedded ring scenario by
// the weighted drop/block objective and prints the regret table. A
// non-negative gate additionally asserts that no scheme beats the optimal
// policy beyond noise plus that slack (experiment.GateOptimalFloor); the
// first violation fails the run after all tables have printed.
func runLeaderboards(w io.Writer, opts experiment.Options, gate float64) error {
	var gateErr error
	for _, name := range experiment.RingScenarioNames() {
		s, err := scenario.Load(name)
		if err != nil {
			return err
		}
		lb, err := experiment.RunLeaderboard(s, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "scenario %s (loads %v, objective J = %d*drop%% + block%% + degradation shortfall)\n",
			lb.Scenario, lb.Loads, optimal.DropWeight)
		fmt.Fprintf(w, "  %-4s %-14s %10s %8s %8s %8s %9s\n",
			"rank", "scheme", "objective", "±95%", "drop%", "±95%", "regret")
		for i, e := range lb.Entries {
			fmt.Fprintf(w, "  %-4d %-14s %10.2f %8.2f %8.2f %8.2f %+9.2f\n",
				i+1, e.ID, e.Objective, e.CI95, e.Drop, e.DropCI95, e.Regret)
		}
		fmt.Fprintln(w)
		if gate >= 0 && gateErr == nil {
			gateErr = lb.GateOptimalFloor(gate)
		}
	}
	if gateErr != nil {
		return gateErr
	}
	if gate >= 0 {
		fmt.Fprintf(w, "gate: optimal is a floor of every leaderboard (slack %g pp)\n", gate)
	}
	return nil
}

// runScenario ranks every scheme on one scenario and emits the result.
func runScenario(arg, metricID string, opts experiment.Options, csvPath string, chart, withCI bool) error {
	s, err := loadScenarioArg(arg)
	if err != nil {
		return err
	}
	metric, yLabel, err := scenarioMetric(metricID)
	if err != nil {
		return err
	}
	curves, err := experiment.RunScenarioMetric(s, metric, opts)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Scenario %s (%s)", s.Name, metricID)
	return emit(s.Name, title, yLabel, curves, csvPath, chart, withCI)
}

// figureChartMeta returns the chart title and y label for a figure id.
func figureChartMeta(id string) (title, yLabel string) {
	title = "Figure " + id
	yLabel = "percentage of accepted calls"
	switch id {
	case "drops":
		title = "Dropped-call percentage (QoS of on-going connections)"
		yLabel = "percentage of admitted calls dropped"
	case "ablation-handoff":
		title = "Dropped-call percentage (handoff-priority ablation)"
		yLabel = "percentage of admitted calls dropped"
	case "adapt-drops":
		title = "Dropped-call percentage (adaptive bandwidth vs reservation)"
		yLabel = "percentage of admitted calls dropped"
	case "adapt-ratio":
		title = "Degradation ratio (price of adaptive handoff protection)"
		yLabel = "mean received/requested bandwidth (%)"
	}
	return title, yLabel
}

func emit(key, title, yLabel string, curves []experiment.Curve, csvPath string, chart, withCI bool) error {
	series := make([]stats.Series, len(curves))
	for i, c := range curves {
		series[i] = c.Series
	}

	if chart {
		c := plot.Chart{
			Title:  title,
			XLabel: "number of requesting connections",
			YLabel: yLabel,
		}
		if err := c.Render(os.Stdout, series...); err != nil {
			return err
		}
		fmt.Println()
	}

	if withCI {
		for _, c := range curves {
			fmt.Printf("%s\n", c.Name)
			for i, p := range c.Points {
				fmt.Printf("  N=%-4g %6.2f ± %.2f\n", p.X, p.Y, c.CI95[i])
			}
		}
		fmt.Println()
	}

	switch csvPath {
	case "":
		return nil
	case "-":
		return plot.WriteCSV(os.Stdout, series...)
	default:
		path := csvPath
		if len(curves) > 0 && strings.Contains(path, "%s") {
			path = fmt.Sprintf(csvPath, key)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := plot.WriteCSV(f, series...); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
}
