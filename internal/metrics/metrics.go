// Package metrics is the repository's observability registry: dense-array
// per-cell counters and gauges for the admission planes (the bsd daemon's
// sessions and the cellsim event loop), plus the Prometheus text
// exposition they are served in.
//
// The design constraint is the simulation and serving hot paths: recording
// one admission outcome must not take a lock, must not allocate, and must
// not touch a map. A Registry is therefore two flat arrays — one uint64
// counter row and one float64-bits gauge row per cell, indexed by
// slot x column — and every bump is a single atomic add or store. Readers
// (the /metrics scrape, interval samplers) take a Snapshot: an atomic
// element-wise copy of both arrays into a reusable buffer, so a scrape
// observes each cell's columns at one sampling instant without ever
// blocking a writer.
//
// Process-wide counters that are not per-cell (the decision-surface
// compile cache of internal/core, say) register a read callback with
// RegisterScalar and ride along in the same exposition.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"facsp/internal/traffic"
)

// floatBits and floatFrom move gauge values through the uint64 atomics.
func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// Counter identifies one per-cell monotone counter column of a Registry.
type Counter int

// The per-cell counter columns. The class-partitioned triples are laid out
// consecutively so Admits/Blocks/Drops can index them by traffic.Class.
const (
	// AdmitsText..AdmitsVideo count accepted admissions (new calls and
	// handoffs) by service class.
	AdmitsText Counter = iota
	AdmitsVoice
	AdmitsVideo
	// BlocksText..BlocksVideo count denied new-call admissions by class.
	BlocksText
	BlocksVoice
	BlocksVideo
	// DropsText..DropsVideo count denied handoff admissions by class — an
	// on-going connection lost at a cell boundary.
	DropsText
	DropsVoice
	DropsVideo
	// CtrShed counts requests shed by the cell's bounded queue
	// (wire code "overloaded").
	CtrShed

	numCounters
)

// Admits returns the accepted-admission counter column for a class.
func Admits(c traffic.Class) Counter { return AdmitsText + Counter(c-traffic.Text) }

// Blocks returns the denied-new-call counter column for a class.
func Blocks(c traffic.Class) Counter { return BlocksText + Counter(c-traffic.Text) }

// Drops returns the denied-handoff counter column for a class.
func Drops(c traffic.Class) Counter { return DropsText + Counter(c-traffic.Text) }

// Gauge identifies one per-cell gauge column of a Registry.
type Gauge int

// The per-cell gauge columns.
const (
	// OccupancyBU is the cell occupancy in bandwidth units after the
	// cell's most recent operation.
	OccupancyBU Gauge = iota
	// CapacityBU is the cell's total bandwidth in BU.
	CapacityBU
	// DegradedConns is the number of on-going connections an adaptive
	// scheme currently serves below their requested bandwidth — the
	// degradation depth of the cell. Always 0 for non-adaptive schemes.
	DegradedConns

	numGauges
)

// Registry holds the per-cell telemetry of one admission plane. All
// methods are safe for concurrent use; Inc, Add and SetGauge are
// lock-free, allocation-free single atomic operations, so they may sit on
// the simulation and serving hot paths.
type Registry struct {
	cells    int
	counters []atomic.Uint64 // cells x numCounters
	gauges   []atomic.Uint64 // cells x numGauges, float64 bits
}

// New builds a registry for the given number of cells.
func New(cells int) (*Registry, error) {
	if cells < 1 {
		return nil, fmt.Errorf("metrics: registry needs at least one cell, got %d", cells)
	}
	return &Registry{
		cells:    cells,
		counters: make([]atomic.Uint64, cells*int(numCounters)),
		gauges:   make([]atomic.Uint64, cells*int(numGauges)),
	}, nil
}

// Cells returns the number of cell rows.
func (r *Registry) Cells() int { return r.cells }

// Inc adds 1 to a cell's counter column.
func (r *Registry) Inc(cell int, c Counter) {
	r.counters[cell*int(numCounters)+int(c)].Add(1)
}

// Add adds n to a cell's counter column.
func (r *Registry) Add(cell int, c Counter, n uint64) {
	r.counters[cell*int(numCounters)+int(c)].Add(n)
}

// CounterValue reads one cell's counter column.
func (r *Registry) CounterValue(cell int, c Counter) uint64 {
	return r.counters[cell*int(numCounters)+int(c)].Load()
}

// SetGauge stores a cell's gauge column.
func (r *Registry) SetGauge(cell int, g Gauge, v float64) {
	r.gauges[cell*int(numGauges)+int(g)].Store(floatBits(v))
}

// GaugeValue reads one cell's gauge column.
func (r *Registry) GaugeValue(cell int, g Gauge) float64 {
	return floatFrom(r.gauges[cell*int(numGauges)+int(g)].Load())
}

// Snapshot is one interval sample of a whole registry: plain dense arrays
// a reader owns outright, decoupled from the live atomics.
type Snapshot struct {
	cells    int
	counters []uint64
	gauges   []float64
}

// Cells returns the number of cell rows in the snapshot.
func (s *Snapshot) Cells() int { return s.cells }

// Counter reads one cell's sampled counter column.
func (s *Snapshot) Counter(cell int, c Counter) uint64 {
	return s.counters[cell*int(numCounters)+int(c)]
}

// Gauge reads one cell's sampled gauge column.
func (s *Snapshot) Gauge(cell int, g Gauge) float64 {
	return s.gauges[cell*int(numGauges)+int(g)]
}

// Snapshot samples every counter and gauge with atomic loads into dst,
// reusing its buffers when they fit (a periodic sampler allocates once,
// then samples allocation-free). A nil dst allocates a fresh snapshot.
func (r *Registry) Snapshot(dst *Snapshot) *Snapshot {
	if dst == nil {
		dst = new(Snapshot)
	}
	dst.cells = r.cells
	dst.counters = growSlice(dst.counters, len(r.counters))
	dst.gauges = growSlice(dst.gauges, len(r.gauges))
	for i := range r.counters {
		dst.counters[i] = r.counters[i].Load()
	}
	for i := range r.gauges {
		dst.gauges[i] = floatFrom(r.gauges[i].Load())
	}
	return dst
}

// growSlice returns buf with length n, reusing its capacity when possible.
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ScalarFunc reads one process-wide counter value.
type ScalarFunc func() uint64

// scalar is one registered process-wide counter family.
type scalar struct {
	name, help string
	fn         ScalarFunc
}

var scalars struct {
	mu   sync.Mutex
	list []scalar
}

// RegisterScalar registers a process-wide (not per-cell) counter family
// under the given Prometheus family name; every exposition written with
// WriteScalars reads it through fn. Registering a duplicate name panics —
// callers register from package init, so a collision is a programming
// error, not a runtime condition.
func RegisterScalar(name, help string, fn ScalarFunc) {
	scalars.mu.Lock()
	defer scalars.mu.Unlock()
	for _, s := range scalars.list {
		if s.name == name {
			panic("metrics: duplicate scalar family " + name)
		}
	}
	scalars.list = append(scalars.list, scalar{name: name, help: help, fn: fn})
}

// registeredScalars snapshots the scalar registry sorted by family name,
// so exposition order is stable regardless of registration order.
func registeredScalars() []scalar {
	scalars.mu.Lock()
	out := make([]scalar, len(scalars.list))
	copy(out, scalars.list)
	scalars.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
