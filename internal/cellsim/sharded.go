package cellsim

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"facsp/internal/hexgrid"
)

// ShardOptions parameterises the sharded execution engine (RunSharded).
type ShardOptions struct {
	// Groups is the number of cell groups the topology is partitioned
	// into. The grouping is part of the run's definition, NOT a function
	// of the worker count: the same config and group count yield
	// bit-identical results for every worker count. 0 picks the
	// topology's default.
	Groups int
	// Workers is the number of goroutines driving cell groups within an
	// epoch. 0 means min(GOMAXPROCS, Groups). Values above Groups are an
	// error — the extra workers could only idle, which almost always
	// means the caller misjudged the run's parallelism budget.
	Workers int
}

// Resolve validates the options against a topology and returns the
// effective group and worker counts. It is the single authority on the
// workers<=groups rule, shared by RunSharded and the CLI flag layer.
func (o ShardOptions) Resolve(t *hexgrid.Topology) (groups, workers int, err error) {
	if o.Groups < 0 {
		return 0, 0, fmt.Errorf("cellsim: negative group count %d", o.Groups)
	}
	if o.Workers < 0 {
		return 0, 0, fmt.Errorf("cellsim: negative worker count %d", o.Workers)
	}
	groups = o.Groups
	if groups == 0 {
		groups = t.DefaultGroups()
	}
	if groups > t.Cells() {
		groups = t.Cells()
	}
	workers = o.Workers
	if workers == 0 {
		workers = min(runtime.GOMAXPROCS(0), groups)
	}
	if workers > groups {
		return 0, 0, fmt.Errorf("cellsim: %d workers exceed the topology's %d cell groups (workers can only own whole groups; lower -workers or raise the group count)", workers, groups)
	}
	return groups, workers, nil
}

// RunSharded executes one simulation partitioned cell-group-per-worker:
// the topology is split into opts.Groups contiguous slot ranges, each
// group runs on its own event heap fed by per-cell RNG substreams, and
// calls crossing any cell boundary are exchanged at fixed epoch barriers
// (every CheckInterval of simulated time), where they are re-admitted in
// a canonical (crossing time, call id) order by a single goroutine.
//
// The result is bit-identical for every worker count, and — because the
// epoch grid, the per-cell streams and the barrier order are all
// independent of the partitioning — for every group count as well. It is
// NOT the same realisation as Run: the single-heap engine interleaves all
// cells' randomness through one sequential stream and admits handoffs the
// instant they are detected, while the sharded engine gives every cell its
// own substream and defers handoff admission to the end of the epoch.
// Both are faithful simulations of the same configured network, run by
// the same call lifecycle under a different policy (lifecycle.go); both
// export Config.Metrics.
//
// Unlike Run, whose headline counters track the tagged centre cell, a
// sharded Result counts every cell's traffic (Requests == NetworkRequests
// and so on): city-scale runs have no single cell of interest.
// CentreUtilization still tracks the topology's slot-0 cell.
//
// The admitter must implement TopologyCompiler so that all per-cell state
// exists before the parallel phase; network-level admitters with shared
// mutable state (such as scc.Controller) are rejected.
func RunSharded(cfg Config, adm Admitter, opts ShardOptions) (Result, error) {
	s, err := New(cfg, adm)
	if err != nil {
		return Result{}, err
	}
	if _, ok := adm.(TopologyCompiler); !ok {
		return Result{}, fmt.Errorf("cellsim: admitter %T cannot be sharded: it does not compile per-cell state (TopologyCompiler); network-level schemes must use the single-heap engine", adm)
	}
	groups, workers, err := opts.Resolve(s.topo)
	if err != nil {
		return Result{}, err
	}
	return new(engine).run(s, sharded, groups, workers)
}

// loop drives the epoch/barrier cycle: every group runs its own events up
// to the epoch deadline (in parallel, one group per worker at a time),
// then a single-threaded barrier exchanges the boundary crossings. Epochs
// with no events are skipped deterministically by jumping the deadline to
// the grid point covering the earliest pending event.
func (e *engine) loop(workers int) error {
	epoch := e.cfg.CheckInterval
	k := 0.0 // the current epoch's index; its barrier is at k*epoch
	for {
		next := math.Inf(1)
		for _, g := range e.groups {
			if at, ok := g.sim.NextAt(); ok && at < next {
				next = at
			}
		}
		if math.IsInf(next, 1) {
			return e.err()
		}
		// The epoch grid is absolute (multiples of CheckInterval from 0),
		// so the barrier times depend neither on the grouping nor on
		// which epochs were skipped for lack of events.
		k = math.Max(k+1, math.Ceil(next/epoch))
		if k*epoch < next {
			// Rounding put next just past the grid point.
			k++
		}
		deadline := k * epoch

		if workers <= 1 || len(e.groups) == 1 {
			for _, g := range e.groups {
				g.sim.RunUntil(deadline)
			}
		} else {
			var cursor atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := cursor.Add(1) - 1
						if i >= int64(len(e.groups)) {
							return
						}
						e.groups[i].sim.RunUntil(deadline)
					}
				}()
			}
			wg.Wait()
		}
		if err := e.err(); err != nil {
			return err
		}
		e.exchange(deadline)
		if err := e.err(); err != nil {
			return err
		}
	}
}

// exchange is the epoch barrier: it merges every group's deferred
// boundary crossings, sorts them into the canonical (crossing time, call
// id) order, and performs the handoff admissions single-threaded. A
// migration whose call already ended during the epoch (its holding time
// expired at the source cell before the barrier) is skipped.
func (e *engine) exchange(now float64) {
	all := e.merge[:0]
	for _, g := range e.groups {
		all = append(all, g.migrations...)
		g.migrations = g.migrations[:0]
	}
	e.merge = all // keep the grown buffer for the next barrier
	slices.SortFunc(all, func(a, b migration) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.c.req.ID, b.c.req.ID)
	})
	for _, m := range all {
		if !m.c.ended {
			e.handoff(m.c, m.dest, m.req, m.at, now)
		}
	}
}
