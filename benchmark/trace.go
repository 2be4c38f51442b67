package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"facsp/internal/cac"
	"facsp/internal/cellsim"
	"facsp/internal/hexgrid"
)

// Spans are recorded from the benchmark's own files, around its calls into
// each layer: the client round trip, the controller behind the daemon, the
// simulation run and the admitter behind it. They are kept in memory and
// written out when the run ends.

// span is one timed interval. Serve-plane controller spans also carry the
// request's cell, speed and angle, which is how they are matched to the
// client round trip that caused them: the daemon renumbers request IDs.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	key    matchKey
}

func (s span) dur() int64 { return s.End - s.Start }

// matchKey identifies an admission by its request payload.
type matchKey struct {
	cell         int
	speed, angle uint64
}

func keyOf(cell int, speed, angle float64) matchKey {
	return matchKey{cell, math.Float64bits(speed), math.Float64bits(angle)}
}

// maxSpans bounds the recorder's memory; spans beyond it are not kept.
const maxSpans = 1 << 20

// recorder collects spans while on. The clock is nanoseconds since epoch.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// take returns the recorded spans and empties the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// tracedController times every Admit and Release of a daemon cell's
// controller while the recorder is on.
type tracedController struct {
	cac.Controller
	cell int
	rec  *recorder
}

func (t *tracedController) Admit(req cac.Request) cac.Decision {
	if !t.rec.on.Load() {
		return t.Controller.Admit(req)
	}
	start := t.rec.now()
	d := t.Controller.Admit(req)
	t.rec.add(span{Name: "core.admit", Start: start, End: t.rec.now(), key: keyOf(t.cell, req.Speed, req.Angle)})
	return d
}

func (t *tracedController) Release(req cac.Request) error {
	if !t.rec.on.Load() {
		return t.Controller.Release(req)
	}
	start := t.rec.now()
	err := t.Controller.Release(req)
	t.rec.add(span{Name: "core.release", Start: start, End: t.rec.now(), key: keyOf(t.cell, req.Speed, req.Angle)})
	return err
}

// SchemeName keeps the wire responses byte-identical to an undecorated
// daemon's.
func (t *tracedController) SchemeName() string { return cac.Name(t.Controller) }

// simSampleEvery is the simulation plane's span sampling: one admitter call
// in this many is timed, which keeps the clock reads off most of the
// ~60 ns decisions of the city workload.
const simSampleEvery = 16

// tracedAdmitter times a sample of a simulation's Admit and Release calls.
// One is built per run; its counters are atomic because the sharded engine
// calls it from several workers.
type tracedAdmitter struct {
	inner     cellsim.Admitter
	rec       *recorder
	trace     uint64
	parent    uint64
	calls     atomic.Uint64
	admits    atomic.Uint64
	accept    atomic.Uint64
	nextID    atomic.Uint64
	sampledNs atomic.Int64
}

// collect adds the run's admitter counts to o, scaling the sampled
// controller time up to all calls.
func (t *tracedAdmitter) collect(o *simOp) {
	o.coreNs = float64(t.sampledNs.Load()) * simSampleEvery
	o.admits = t.admits.Load()
	o.accepted = t.accept.Load()
}

func (t *tracedAdmitter) span(name string, start int64) {
	end := t.rec.now()
	t.sampledNs.Add(end - start)
	t.rec.add(span{Trace: t.trace, ID: t.parent + t.nextID.Add(1), Parent: t.parent, Name: name, Start: start, End: end})
}

func (t *tracedAdmitter) sampled() bool { return t.calls.Add(1)%simSampleEvery == 0 }

func (t *tracedAdmitter) Admit(cell hexgrid.Coord, req cac.Request) cac.Decision {
	t.admits.Add(1)
	if !t.sampled() {
		d := t.inner.Admit(cell, req)
		if d.Accept {
			t.accept.Add(1)
		}
		return d
	}
	start := t.rec.now()
	d := t.inner.Admit(cell, req)
	t.span("core.admit", start)
	if d.Accept {
		t.accept.Add(1)
	}
	return d
}

func (t *tracedAdmitter) Release(cell hexgrid.Coord, req cac.Request) error {
	if !t.sampled() {
		return t.inner.Release(cell, req)
	}
	start := t.rec.now()
	err := t.inner.Release(cell, req)
	t.span("core.release", start)
	return err
}

// The decorator forwards exactly the optional interfaces of the admitter
// it wraps: the engines branch on them, so adding or hiding one would
// change what is measured.
type (
	tracedCompiler struct {
		*tracedAdmitter
		tc cellsim.TopologyCompiler
	}
	tracedAdaptive struct {
		*tracedAdmitter
		aa cellsim.AdaptiveAdmitter
	}
	tracedBoth struct {
		*tracedAdmitter
		tc cellsim.TopologyCompiler
		aa cellsim.AdaptiveAdmitter
	}
)

func (t tracedCompiler) CompileTopology(tp *hexgrid.Topology) { t.tc.CompileTopology(tp) }
func (t tracedAdaptive) SetBandwidthObserver(f func(hexgrid.Coord, uint64, float64)) {
	t.aa.SetBandwidthObserver(f)
}
func (t tracedBoth) CompileTopology(tp *hexgrid.Topology) { t.tc.CompileTopology(tp) }
func (t tracedBoth) SetBandwidthObserver(f func(hexgrid.Coord, uint64, float64)) {
	t.aa.SetBandwidthObserver(f)
}

// wrapAdmitter returns t as an Admitter with the optional interfaces of
// t.inner.
func wrapAdmitter(t *tracedAdmitter) cellsim.Admitter {
	tc, isTC := t.inner.(cellsim.TopologyCompiler)
	aa, isAA := t.inner.(cellsim.AdaptiveAdmitter)
	switch {
	case isTC && isAA:
		return tracedBoth{t, tc, aa}
	case isTC:
		return tracedCompiler{t, tc}
	case isAA:
		return tracedAdaptive{t, aa}
	default:
		return t
	}
}

// runtimeStats is a snapshot of the Go runtime's allocation and GC
// counters.
type runtimeStats struct {
	allocs, bytes, gcCycles uint64
	gcCPU, busyCPU          float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return runtimeStats{
		allocs:   s[0].Value.Uint64(),
		bytes:    s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
		busyCPU:  s[4].Value.Float64() - s[5].Value.Float64(),
	}
}

// runtimeMetrics reports the runtime layer between two snapshots, per op;
// the GC's CPU share is of the CPU time the process was not idle.
func runtimeMetrics(before, after runtimeStats, ops int) map[string]metric {
	n := float64(max(ops, 1))
	gcFrac := 0.0
	if cpu := after.busyCPU - before.busyCPU; cpu > 0 {
		gcFrac = (after.gcCPU - before.gcCPU) / cpu
	}
	return map[string]metric{
		"runtime.allocs_per_op": {float64(after.allocs-before.allocs) / n, "count"},
		"runtime.bytes_per_op":  {float64(after.bytes-before.bytes) / n, "B"},
		"runtime.gc_cycles":     {float64(after.gcCycles - before.gcCycles), "count"},
		"runtime.gc_cpu_frac":   {gcFrac, "ratio"},
	}
}

// layerRow is one row of a layer table: a layer's self time per op.
type layerRow struct {
	layer    string
	selfNs   float64
	measured string // how the row was measured
}

// layerTable breaks one op's mean time into the layers it passed through.
// Rows measured on their own must sum to the total; the remainder row
// absorbs the rest and a negative remainder is flagged as unexplained.
type layerTable struct {
	workload string
	op       string
	totalNs  float64
	rows     []layerRow
	notes    []string
}

// gap is the share of the total the rows leave unexplained: zero unless a
// remainder row came out negative.
func (t *layerTable) gap() float64 {
	sum := 0.0
	for _, r := range t.rows {
		sum += math.Max(r.selfNs, 0)
	}
	return math.Abs(sum-t.totalNs) / t.totalNs
}

func (t *layerTable) print(w io.Writer) {
	fmt.Fprintf(w, "layer table %s: mean %s %.0f ns\n", t.workload, t.op, t.totalNs)
	fmt.Fprintf(w, "  %-12s %12s %7s  %s\n", "layer", "self ns/op", "share", "measured by")
	for _, r := range t.rows {
		flag := ""
		if r.selfNs < 0 {
			flag = "  UNEXPLAINED: negative"
		}
		fmt.Fprintf(w, "  %-12s %12.0f %6.1f%%  %s%s\n", r.layer, r.selfNs, 100*r.selfNs/t.totalNs, r.measured, flag)
	}
	if g := t.gap(); g > 0.10 {
		fmt.Fprintf(w, "  UNEXPLAINED gap %.1f%% of the total\n", 100*g)
	}
	for _, n := range t.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

// writeSpans writes spans as JSON lines to dir/<workload>.spans.jsonl.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
