// Package hotness tracks per-cell demand with an exponentially decaying
// event counter: each recorded event contributes weight 1 that halves
// every configured half-life, so a cell's value is a recency-weighted
// event count and value x ln2/halfLife estimates its recent event rate in
// events per unit time (for a steady Poisson stream of rate r the value
// converges to r·halfLife/ln2, so the estimator converges to r).
//
// Record is O(1) and allocation-free: the decay is applied lazily — a
// cell's stored value is only brought forward to "now" when that cell is
// touched, never by a background sweep. Readers (the /metrics scrape, the
// /hotcells ranking, the hotness-adaptive surfaces of ROADMAP item 2) pay
// one exponential per cell read.
//
// Time is an explicit float64 in the caller's unit (wall-clock seconds
// for the serving daemon, simulation seconds for cellsim), which keeps
// the tracker deterministic under test and lets both planes share it.
package hotness

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Tracker is a bank of per-cell exponentially decaying event counters.
// All methods are safe for concurrent use; cells decay independently, so
// writers to different cells never contend.
type Tracker struct {
	halfLife float64
	cells    []cell
}

// cell is one decaying counter. Its mutex makes the (value, last) pair
// atomic; its writers are the bsd sessions admitting on the cell or the
// single-threaded sim loop, so it is rarely contended outside scrapes.
type cell struct {
	mu    sync.Mutex
	value float64
	last  float64
}

// New builds a tracker for the given number of cells. halfLife is the
// time, in the caller's time unit, in which an undisturbed cell's value
// halves; it must be positive and finite.
func New(cells int, halfLife float64) (*Tracker, error) {
	if cells < 1 {
		return nil, fmt.Errorf("hotness: tracker needs at least one cell, got %d", cells)
	}
	if !(halfLife > 0) || math.IsInf(halfLife, 1) {
		return nil, fmt.Errorf("hotness: half-life %v must be positive and finite", halfLife)
	}
	return &Tracker{halfLife: halfLife, cells: make([]cell, cells)}, nil
}

// Cells returns the number of tracked cells.
func (t *Tracker) Cells() int { return len(t.cells) }

// HalfLife returns the configured half-life.
func (t *Tracker) HalfLife() float64 { return t.halfLife }

// decayed brings v recorded at last forward to now. Time never runs
// backwards: a now before last (clock skew between concurrent recorders)
// applies no decay rather than amplifying the value.
func (t *Tracker) decayed(v, last, now float64) float64 {
	if dt := now - last; dt > 0 {
		return v * math.Exp2(-dt/t.halfLife)
	}
	return v
}

// Record adds one event to a cell at time now. O(1), allocation-free.
func (t *Tracker) Record(cellIdx int, now float64) {
	c := &t.cells[cellIdx]
	c.mu.Lock()
	c.value = t.decayed(c.value, c.last, now) + 1
	if now > c.last {
		c.last = now
	}
	c.mu.Unlock()
}

// Value returns a cell's decayed event count as of now, without recording.
func (t *Tracker) Value(cellIdx int, now float64) float64 {
	c := &t.cells[cellIdx]
	c.mu.Lock()
	v := t.decayed(c.value, c.last, now)
	c.mu.Unlock()
	return v
}

// Rate returns a cell's estimated recent event rate as of now, in events
// per time unit: the decayed count scaled by ln2/halfLife.
func (t *Tracker) Rate(cellIdx int, now float64) float64 {
	return t.Value(cellIdx, now) * math.Ln2 / t.halfLife
}

// Rates fills buf (reused when it fits, reallocated otherwise) with every
// cell's Rate as of now, indexed by cell, and returns it.
func (t *Tracker) Rates(now float64, buf []float64) []float64 {
	if cap(buf) < len(t.cells) {
		buf = make([]float64, len(t.cells))
	}
	buf = buf[:len(t.cells)]
	for i := range t.cells {
		buf[i] = t.Rate(i, now)
	}
	return buf
}

// CellRate is one cell's rank entry in a hotness ranking.
type CellRate struct {
	// Cell is the cell slot index.
	Cell int `json:"cell"`
	// Rate is the cell's estimated event rate (see Rate).
	Rate float64 `json:"rate"`
}

// Top returns the k hottest cells as of now, hottest first, ties broken
// by ascending cell index so the ranking is deterministic. k <= 0 or
// k > Cells() returns all cells.
func (t *Tracker) Top(now float64, k int) []CellRate {
	out := make([]CellRate, len(t.cells))
	for i := range t.cells {
		out[i] = CellRate{Cell: i, Rate: t.Rate(i, now)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rate != out[j].Rate {
			return out[i].Rate > out[j].Rate
		}
		return out[i].Cell < out[j].Cell
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}
