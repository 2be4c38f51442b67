package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"facsp/internal/cellsim"
	"facsp/internal/experiment"
	"facsp/internal/scenario"
)

// The simulation workloads time one simulation run per op. sim-paper runs
// the Fig. 10 sweep's replications (FACS-P and FACS, exact inference, the
// 15 default loads) through experiment.RunCurve on two workers; sim-city
// runs the ~1000-cell evaluation city on the sharded engine with two
// workers.

const (
	simWorkers = 2
	// simWindow is the window the simulation p99 is taken over.
	simWindow  = 2 * time.Second
	cityLoad   = 8
	cityGroups = 16
)

// simOp is one timed simulation run.
type simOp struct {
	index            int
	at               time.Duration // start, since the pass began
	wallNs           int64         // the whole op
	runNs            int64         // inside the engine
	startNs, runAtNs int64         // traced: op and engine start on the recorder clock
	coreNs           float64
	calls, handoffs  int
	admits, accepted uint64
	hash             uint64
	problem          string
}

// check verifies a run's conservation: every centre request was accepted
// or blocked, and every handoff attempt accepted or dropped.
func (o *simOp) check(r cellsim.Result) {
	switch {
	case r.Requests != r.Accepted+r.Blocked:
		o.problem = fmt.Sprintf("op %d: requests %d != accepted %d + blocked %d", o.index, r.Requests, r.Accepted, r.Blocked)
	case r.HandoffAttempts != r.HandoffAccepted+r.Dropped:
		o.problem = fmt.Sprintf("op %d: handoff attempts %d != accepted %d + dropped %d", o.index, r.HandoffAttempts, r.HandoffAccepted, r.Dropped)
	}
	o.calls = r.NetworkRequests
	o.handoffs = r.HandoffAttempts
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d %d %v %v %x %x %x",
		r.Requests, r.Accepted, r.Blocked, r.HandoffAttempts, r.HandoffAccepted, r.Dropped,
		r.Completed, r.LeftNetwork, r.NetworkRequests, r.NetworkAccepted, r.AcceptedByClass, r.RequestsByClass,
		math.Float64bits(r.CentreUtilization), math.Float64bits(r.BandwidthGranted), math.Float64bits(r.BandwidthRequested))
	o.hash = h.Sum64()
}

// simEngine is one simulation workload: op(i, rec) runs the i-th
// simulation of a deterministic sequence, traced when rec is non-nil.
type simEngine struct {
	name string
	op   func(i int, rec *recorder) simOp
	// workers is how many ops run at once, engineWorkers how many
	// goroutines run inside one op.
	workers, engineWorkers int
	// minOps is how many ops every pass runs, however short: the result
	// hash covers them.
	minOps int
	// driver names the layer between the benchmark and the engine, and
	// how its row of the layer table is measured.
	driver, driverHow string
}

// simRun adapts a simEngine to an instance.
type simRun struct{ e *simEngine }

func (s simRun) close() error { return nil }

// warmUpOps is the first op index of the warm-up pass, far from the
// measured ops so their inputs differ.
const warmUpOps = 1 << 20

// runOps runs ops from index first on e.workers goroutines until d has
// passed and at least e.minOps have started, and returns them in index
// order with the elapsed wall time.
func runOps(e *simEngine, d time.Duration, rec *recorder, first int) ([]simOp, time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		ops  []simOp
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := first + int(next.Add(1)) - 1
				if i >= first+e.minOps && time.Now().After(deadline) {
					return
				}
				at := time.Since(start)
				op := e.op(i, rec)
				op.at = at
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(ops, func(i, j int) bool { return ops[i].index < ops[j].index })
	return ops, elapsed
}

// summary is what a pass of ops adds up to.
type summary struct {
	elapsed time.Duration
	calls   int
	hash    uint64 // over the first minOps results, in index order
}

func summarize(e *simEngine, ops []simOp, elapsed time.Duration, res *result) summary {
	s := summary{elapsed: elapsed}
	h := fnv.New64a()
	for i, o := range ops {
		s.calls += o.calls
		if i < e.minOps {
			fmt.Fprintf(h, "%x", o.hash)
		}
		if o.problem != "" && res != nil {
			res.failed++
			res.problem("%s", o.problem)
		}
	}
	s.hash = h.Sum64()
	if res != nil {
		res.attempted += len(ops)
	}
	return s
}

func (s summary) callsPerSec() float64 { return float64(s.calls) / s.elapsed.Seconds() }

func (s simRun) measure(d time.Duration) (*result, error) {
	res := &result{}
	runOps(s.e, warmUpFor(d), nil, warmUpOps)
	ops, elapsed := runOps(s.e, d, nil, 0)
	sum := summarize(s.e, ops, elapsed, res)
	lat := make([]int64, len(ops))
	per := map[time.Duration][]int64{}
	for i, o := range ops {
		lat[i] = o.wallNs
		per[o.at/simWindow] = append(per[o.at/simWindow], o.wallNs)
	}
	sortInt64(lat)
	p50, _ := percentile(lat, 0.50)
	// The p99 is the median of per-window p99s, like the serving p99, so a
	// burst of contention in a few windows moves it little.
	var p99s []int64
	supported := true
	for _, v := range per {
		sortInt64(v)
		p, ok := percentile(v, 0.99)
		p99s = append(p99s, p)
		supported = supported && ok
	}
	sortInt64(p99s)
	p99 := p99s[len(p99s)/2]
	res.metrics = map[string]metric{
		"latency_p50_us":   {float64(p50) / 1e3, "us"},
		"latency_p99_us":   {float64(p99) / 1e3, "us"},
		"throughput_per_s": {sum.callsPerSec(), "1/s"},
	}
	res.notes = append(res.notes, fmt.Sprintf("%d runs, %d simulated calls in %.2fs; result hash of the first %d runs %016x",
		len(ops), sum.calls, elapsed.Seconds(), s.e.minOps, sum.hash))
	if !supported {
		res.notes = append(res.notes, fmt.Sprintf("p99: fewer than %d of a window's runs lie beyond its p99, so it is a window's slowest runs", minBeyond))
	}
	return res, nil
}

// trace runs an untraced pass for a third of d and a traced pass for the
// rest, both from op 0, so their first results must hash the same.
func (s simRun) trace(d time.Duration) (*result, error) {
	res := &result{}
	runOps(s.e, warmUpFor(d), nil, warmUpOps)
	before := readRuntime()
	ops, elapsed := runOps(s.e, d/3, nil, 0)
	after := readRuntime()
	plain := summarize(s.e, ops, elapsed, res)
	res.metrics = runtimeMetrics(before, after, len(ops))

	rec := newRecorder()
	ops, elapsed = runOps(s.e, d-d/3, rec, 0)
	traced := summarize(s.e, ops, elapsed, res)
	if plain.hash != traced.hash {
		res.problem("traced results differ from untraced ones: hash %016x != %016x", traced.hash, plain.hash)
	}
	coreSpans := rec.take()

	var wall, run, core float64
	var admits, accepted uint64
	handoffs := 0
	for _, o := range ops {
		wall += float64(o.wallNs)
		run += float64(o.runNs)
		core += o.coreNs
		admits += o.admits
		accepted += o.accepted
		handoffs += o.handoffs
	}
	n := float64(len(ops))
	coreRow := core / n / float64(s.e.engineWorkers)
	driverRow := (wall - run) / n
	t := &layerTable{workload: s.e.name, op: "simulation run", totalNs: wall / n}
	t.rows = []layerRow{
		{s.e.driver, driverRow, s.e.driverHow},
		{"cellsim", run/n - coreRow, "remainder of the run: des, mobility, lifecycle, accounting"},
		{"core", coreRow, fmt.Sprintf("cellsim.Admitter decorator, 1 call in %d timed", simSampleEvery)},
	}
	res.table = t
	var admitNs, releaseNs []int64
	for _, sp := range coreSpans {
		if sp.Name == "core.admit" {
			admitNs = append(admitNs, sp.dur())
		} else {
			releaseNs = append(releaseNs, sp.dur())
		}
	}
	sortInt64(admitNs)
	sortInt64(releaseNs)
	admitP50, _ := percentile(admitNs, 0.5)
	releaseP50, _ := percentile(releaseNs, 0.5)
	if s.e.engineWorkers > 1 {
		t.notes = append(t.notes, fmt.Sprintf("core time is divided by the engine's %d workers to count wall time", s.e.engineWorkers))
	}
	t.notes = append(t.notes,
		fmt.Sprintf("runs %d, simulated calls %d: cellsim self %.2fµs per call, %.3f handoffs and %.3f admits per call",
			len(ops), traced.calls, (run/n-coreRow)*n/float64(traced.calls)/1e3, float64(handoffs)/float64(traced.calls), float64(admits)/float64(traced.calls)),
		fmt.Sprintf("workers busy %.3f of %d workers' wall time", wall/(float64(s.e.workers)*float64(elapsed)), s.e.workers),
		fmt.Sprintf("core: admit p50 %d ns, release p50 %d ns over %d sampled spans, accept ratio %.3f", admitP50, releaseP50, len(coreSpans), float64(accepted)/float64(max(admits, 1))),
		fmt.Sprintf("calls/s untraced %.0f, traced %.0f; result hash %016x both", plain.callsPerSec(), traced.callsPerSec(), traced.hash),
	)
	res.metrics["driver.ns_per_op"] = metric{driverRow, "ns"}
	res.metrics["host.ns_per_op"] = metric{run/n - coreRow, "ns"}
	res.metrics["core.ns_per_op"] = metric{coreRow, "ns"}
	res.metrics["core.admit_ns"] = metric{float64(admitP50), "ns"}
	res.metrics["core.release_ns"] = metric{float64(releaseP50), "ns"}
	res.metrics["trace.overhead_frac"] = metric{plain.callsPerSec()/traced.callsPerSec() - 1, "ratio"}

	for _, o := range ops {
		id := uint64(o.index + 1)
		res.spans = append(res.spans,
			span{Trace: id, ID: 1, Name: "benchmark.op", Start: o.startNs, End: o.startNs + o.wallNs},
			span{Trace: id, ID: 2, Parent: 1, Name: "cellsim.run", Start: o.runAtNs, End: o.runAtNs + o.runNs})
	}
	res.spans = append(res.spans, coreSpans...)
	return res, nil
}

// simPaper is the Fig. 10 sweep: op i is one replication of
// (pass, load, scheme) with pass = i / 30.
type simPaper struct {
	seed    uint64
	loads   []int
	schemes []namedFactory
}

type namedFactory struct {
	name    string
	factory experiment.AdmitterFactory
}

func newSimPaper(seed uint64) (simRun, error) {
	p := &simPaper{
		seed:  seed,
		loads: experiment.DefaultLoads(),
		schemes: []namedFactory{
			{"FACS-P", experiment.FACSPFactory()},
			{"FACS", experiment.FACSFactory()},
		},
	}
	return simRun{&simEngine{
		name: "sim-paper", op: p.op,
		workers: simWorkers, engineWorkers: 1, minOps: len(p.loads) * len(p.schemes),
		driver: "experiment", driverHow: "RunCurve and its worker, outside the run",
	}}, nil
}

func (p *simPaper) op(i int, rec *recorder) simOp {
	per := len(p.loads) * len(p.schemes)
	pass, j := i/per, i%per
	load, sc := p.loads[j/len(p.schemes)], p.schemes[j%len(p.schemes)]
	o := simOp{index: i}
	var (
		res           cellsim.Result
		runStart, end time.Time
		ta            *tracedAdmitter
	)
	start := time.Now()
	cfg, factory := cellsim.DefaultConfig, sc.factory
	if rec != nil {
		o.startNs = int64(start.Sub(rec.epoch))
		// RunCurve with one worker builds the config, runs and reports the
		// metric on one goroutine, so these two bracket the run.
		cfg = func(load int, seed uint64) cellsim.Config {
			runStart = time.Now()
			return cellsim.DefaultConfig(load, seed)
		}
		factory = func() cellsim.Admitter {
			ta = &tracedAdmitter{inner: sc.factory(), rec: rec, trace: uint64(i + 1), parent: 2}
			return wrapAdmitter(ta)
		}
	}
	metric := func(r cellsim.Result) float64 {
		end = time.Now()
		res = r
		return r.AcceptedPct()
	}
	_, err := experiment.RunCurve(sc.name, cfg, factory, metric, experiment.Options{
		Loads: []int{load}, Replications: 1, Workers: 1, BaseSeed: p.seed + uint64(pass),
	})
	o.wallNs = int64(time.Since(start))
	if err != nil {
		o.problem = fmt.Sprintf("op %d: %v", i, err)
		return o
	}
	o.check(res)
	o.runNs = o.wallNs
	if ta != nil {
		o.runNs = int64(end.Sub(runStart))
		o.runAtNs = int64(runStart.Sub(rec.epoch))
		ta.collect(&o)
	}
	return o
}

// simCity is the evaluation city: op i is one sharded run at seed+i.
type simCity struct {
	seed    uint64
	scen    *scenario.Scenario
	factory experiment.AdmitterFactory
}

func newSimCity(seed uint64) (simRun, error) {
	s, err := scenario.GenerateCity(scenario.EvalCityParams())
	if err != nil {
		return simRun{}, err
	}
	f, err := experiment.ScenarioSchemeFactory("guard", s, experiment.Options{})
	if err != nil {
		return simRun{}, err
	}
	c := &simCity{seed: seed, scen: s, factory: f}
	return simRun{&simEngine{
		name: "sim-city", op: c.op,
		workers: 1, engineWorkers: simWorkers, minOps: 3,
		driver: "scenario", driverHow: "Scenario.ConfigFor and the admitter factory",
	}}, nil
}

func (c *simCity) op(i int, rec *recorder) simOp {
	o := simOp{index: i}
	start := time.Now()
	if rec != nil {
		o.startNs = int64(start.Sub(rec.epoch))
	}
	cfg, err := c.scen.ConfigFor(cityLoad, c.seed+uint64(i))
	if err != nil {
		o.problem = fmt.Sprintf("op %d: %v", i, err)
		return o
	}
	adm := c.factory()
	var ta *tracedAdmitter
	if rec != nil {
		ta = &tracedAdmitter{inner: adm, rec: rec, trace: uint64(i + 1), parent: 2}
		adm = wrapAdmitter(ta)
	}
	runStart := time.Now()
	res, err := cellsim.RunSharded(cfg, adm, cellsim.ShardOptions{Groups: cityGroups, Workers: simWorkers})
	end := time.Now()
	o.wallNs = int64(end.Sub(start))
	o.runNs = int64(end.Sub(runStart))
	if rec != nil {
		o.runAtNs = int64(runStart.Sub(rec.epoch))
	}
	if err != nil {
		o.problem = fmt.Sprintf("op %d: %v", i, err)
		return o
	}
	o.check(res)
	if ta != nil {
		ta.collect(&o)
	}
	return o
}
