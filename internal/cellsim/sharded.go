package cellsim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"facsp/internal/cac"
	"facsp/internal/des"
	"facsp/internal/hexgrid"
	"facsp/internal/mobility"
	"facsp/internal/rng"
	"facsp/internal/stats"
	"facsp/internal/traffic"
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

// migration is one cross-cell handoff detected during an epoch and
// deferred to the epoch barrier.
type migration struct {
	c    *call
	at   float64 // crossing-detection time
	dest hexgrid.Coord
	req  cac.Request // handoff request frozen at the crossing
}

// groupState is one cell group's private slice of the simulation: its own
// event heap, arrival and call slabs, and result counters. Nothing in it
// is touched by any other group between barriers, which is what makes the
// parallel phase race-free without locks.
type groupState struct {
	run *shardRun
	id  int32
	sim des.Sim

	arrivals []arrival
	calls    []call

	res             Result
	acceptedByClass [numClassSlots]int
	requestsByClass [numClassSlots]int

	migrations []migration

	// Centre-cell occupancy tracking lives in the group owning the
	// topology's slot-0 cell; the barrier (single-threaded, at a time no
	// group has passed) may also append observations.
	ownsCentre bool
	util       stats.TimeWeighted
	centreBU   float64

	firstErr error
}

func (g *groupState) fail(err error) {
	if g.firstErr == nil {
		g.firstErr = err
	}
}

func (g *groupState) observe(now float64) {
	if err := g.util.Observe(now, g.centreBU); err != nil {
		g.fail(err)
	}
}

// shardRun is the state of one sharded simulation run.
type shardRun struct {
	cfg    Config
	adm    Admitter
	layout hexgrid.Layout
	topo   *hexgrid.Topology
	centre hexgrid.Coord

	slotGroup []int32 // cell slot -> owning group
	groups    []*groupState
	byID      []*call // call id -> call, set at admission, kept until the end
	adaptive  bool
	epoch     float64

	// Counters accumulated by the barrier itself (handoff outcomes).
	barrier Result
}

// group returns the state owning the given cell.
func (r *shardRun) group(cell hexgrid.Coord) *groupState {
	slot, ok := r.topo.Of(cell)
	if !ok {
		return nil
	}
	return r.groups[r.slotGroup[slot]]
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
// Both are faithful simulations of the same configured network.
//
// Unlike Run, whose headline counters track the tagged centre cell, a
// sharded Result counts every cell's traffic (Requests == NetworkRequests
// and so on): city-scale runs have no single cell of interest.
// CentreUtilization still tracks the topology's slot-0 cell.
//
// The admitter must implement TopologyCompiler so that all per-cell state
// exists before the parallel phase; network-level admitters with shared
// mutable state (such as scc.Controller) are rejected. So is a config
// that sets Metrics or Hotness, which only Run exports.
func RunSharded(cfg Config, adm Admitter, opts ShardOptions) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	// The sharded engine exports no per-cell series; a sink it would
	// silently leave empty is a configuration error.
	if cfg.Metrics != nil {
		return Result{}, fmt.Errorf("cellsim: RunSharded does not export Config.Metrics; use Run or leave it nil")
	}
	if cfg.Hotness != nil {
		return Result{}, fmt.Errorf("cellsim: RunSharded does not export Config.Hotness; use Run or leave it nil")
	}
	if adm == nil {
		return Result{}, fmt.Errorf("cellsim: nil admitter")
	}
	tc, ok := adm.(TopologyCompiler)
	if !ok {
		return Result{}, fmt.Errorf("cellsim: admitter %T cannot be sharded: it does not compile per-cell state (TopologyCompiler); network-level schemes must use the single-heap engine", adm)
	}
	if cfg.Mobility == nil {
		cfg.Mobility = mobility.DefaultSmoothTurn()
	}
	topo := cfg.Topology
	if topo == nil {
		topo = hexgrid.DiskTopology(hexgrid.Coord{}, cfg.Rings)
	}
	nGroups, workers, err := opts.Resolve(topo)
	if err != nil {
		return Result{}, err
	}
	tc.CompileTopology(topo)

	r := &shardRun{
		cfg:    cfg,
		adm:    adm,
		layout: hexgrid.NewLayout(cfg.CellRadius),
		topo:   topo,
		centre: topo.At(0),
		epoch:  cfg.CheckInterval,
	}
	r.slotGroup = make([]int32, topo.Slots())
	parts := topo.Partition(nGroups)
	r.groups = make([]*groupState, len(parts))
	for gi, slots := range parts {
		g := &groupState{run: r, id: int32(gi), ownsCentre: gi == 0}
		g.sim.SetHandler(g)
		r.groups[gi] = g
		for _, slot := range slots {
			r.slotGroup[slot] = int32(gi)
		}
	}
	// Slot 0 is always in the first partition, so group 0 owns the centre.
	r.groups[0].observe(0)

	total, err := r.predraw()
	if err != nil {
		return Result{}, err
	}
	r.byID = make([]*call, total+1)
	r.armObserver()

	if err := r.loop(workers); err != nil {
		return Result{}, err
	}
	return r.gather()
}

// shardStreams resolves the run's traffic into per-cell sources in slot
// order. Unlike the single-heap engine every stream is counted.
func (r *shardRun) shardStreams() []stream {
	cfg, topo, centre := r.cfg, r.topo, r.centre
	perCell := make(map[hexgrid.Coord]CellTraffic, len(cfg.PerCell))
	for _, ct := range cfg.PerCell {
		perCell[ct.Cell] = ct
	}
	out := make([]stream, 0, topo.Cells())
	for slot := 0; slot < topo.Slots(); slot++ {
		cell := topo.At(slot)
		st := stream{
			cell: cell, mix: cfg.Mix,
			speed: cfg.Speed, angle: cfg.Angle, counted: true,
		}
		if len(cfg.PerCell) == 0 {
			if cell == centre {
				st.n = cfg.Requests
			} else {
				st.n = cfg.NeighborRequests
			}
		} else {
			ct, ok := perCell[cell]
			if !ok {
				continue // no new-call traffic offered to this cell
			}
			st.n = ct.Requests
			st.profile = ct.Profile
			st.burst = ct.Burst
			if ct.Mix != nil {
				st.mix = *ct.Mix
			}
			if ct.Speed != nil {
				st.speed = ct.Speed
			}
			if ct.Angle != nil {
				st.angle = ct.Angle
			}
		}
		out = append(out, st)
	}
	return out
}

// predraw realises every cell's request stream from its own RNG substream
// and schedules the arrivals into the owning groups' heaps. Because each
// cell's draws come from rng.Substream(Seed, slot), the realised traffic
// is a pure function of the config — independent of grouping and worker
// count. Returns the total request count (call ids are 1..total, assigned
// in slot order).
func (r *shardRun) predraw() (int, error) {
	streams := r.shardStreams()
	perGroup := make([]int, len(r.groups))
	total := 0
	for _, st := range streams {
		slot, _ := r.topo.Of(st.cell)
		perGroup[r.slotGroup[slot]] += st.n
		total += st.n
	}
	for gi, g := range r.groups {
		g.arrivals = make([]arrival, 0, perGroup[gi])
		g.calls = make([]call, 0, perGroup[gi])
	}

	var src rng.Source
	nextID := uint64(1)
	for _, st := range streams {
		slot, _ := r.topo.Of(st.cell)
		g := r.groups[r.slotGroup[slot]]
		src.Reseed(rng.Substream(r.cfg.Seed, uint64(slot)))

		var env traffic.Envelope
		if st.burst != nil {
			env = st.burst.Envelope(&src, r.cfg.Window)
		}
		for i := 0; i < st.n; i++ {
			at, err := sampleArrival(&src, r.cfg.Window, st.profile, env)
			if err != nil {
				return 0, err
			}
			class := st.mix.Sample(&src)
			speed := st.speed(&src)
			angle := st.angle(&src)
			holding := src.Exp(r.cfg.HoldingMean)
			id := nextID
			nextID++
			g.res.Requests++
			g.requestsByClass[class]++

			x, y := r.randomPointInCell(&src, st.cell)
			moverSeed := src.SplitSeed()

			g.arrivals = append(g.arrivals, arrival{
				id: id, class: class, speed: speed, angle: angle,
				holding: holding, x: x, y: y, moverSeed: moverSeed,
				cell: st.cell, counted: true,
			})
			a := &g.arrivals[len(g.arrivals)-1]
			if _, err := g.sim.AtOp(at, des.Op{Code: opArrival, Arg: a}); err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}

// randomPointInCell mirrors Sim.randomPointInCell for the sharded run;
// both sample the hexagon's tight [-inradius, inradius] x
// [-circumradius, circumradius] bounding box from the layout's geometry.
func (r *shardRun) randomPointInCell(src *rng.Source, cell hexgrid.Coord) (x, y float64) {
	layout := r.layout
	cx, cy := layout.Center(cell)
	w := layout.Inradius()
	rad := layout.Size
	for {
		px := src.Uniform(-w, w)
		py := src.Uniform(-rad, rad)
		if layout.CellAt(cx+px, cy+py) == cell {
			return cx + px, cy + py
		}
	}
}

// armObserver wires mid-call bandwidth reallocations to per-call
// accounting, exactly as the single-heap engine does. The callback fires
// synchronously inside Admit/Release at some cell, i.e. on the goroutine
// of the group owning that cell (or the barrier), and a controller only
// reallocates calls at its own cell — so it touches only state the
// calling goroutine already owns.
func (r *shardRun) armObserver() {
	aa, ok := r.adm.(AdaptiveAdmitter)
	if !ok {
		return
	}
	cp, probe := r.adm.(interface {
		Controller(hexgrid.Coord) cac.Controller
	})
	if probe {
		if _, adaptive := cp.Controller(r.centre).(cac.Adaptive); !adaptive {
			return
		}
	}
	r.adaptive = true
	aa.SetBandwidthObserver(func(cell hexgrid.Coord, id uint64, allocBU float64) {
		if id >= uint64(len(r.byID)) {
			return
		}
		c := r.byID[id]
		if c == nil || c.ended {
			return
		}
		g := r.group(cell)
		if g == nil {
			return
		}
		now := g.sim.Now()
		shardAccrue(c, now)
		if cell == r.centre {
			cg := r.groups[0]
			cg.centreBU += allocBU - c.alloc
			cg.observe(now)
		}
		c.alloc = allocBU
	})
}

// loop drives the epoch/barrier cycle: every group runs its own events up
// to the epoch deadline (in parallel, one group per worker at a time),
// then a single-threaded barrier exchanges the boundary crossings. Epochs
// with no events are skipped deterministically by jumping the deadline to
// the grid point covering the earliest pending event.
func (r *shardRun) loop(workers int) error {
	k := 0.0 // the current epoch's index; its barrier is at k*epoch
	for {
		next := math.Inf(1)
		for _, g := range r.groups {
			if at, ok := g.sim.NextAt(); ok && at < next {
				next = at
			}
		}
		if math.IsInf(next, 1) {
			return r.err()
		}
		// The epoch grid is absolute (multiples of CheckInterval from 0),
		// so the barrier times depend neither on the grouping nor on
		// which epochs were skipped for lack of events.
		k = math.Max(k+1, math.Ceil(next/r.epoch))
		if k*r.epoch < next {
			// Rounding put next just past the grid point.
			k++
		}
		deadline := k * r.epoch

		if workers <= 1 || len(r.groups) == 1 {
			for _, g := range r.groups {
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
						if i >= int64(len(r.groups)) {
							return
						}
						r.groups[i].sim.RunUntil(deadline)
					}
				}()
			}
			wg.Wait()
		}
		if err := r.err(); err != nil {
			return err
		}
		r.exchange(deadline)
		if err := r.err(); err != nil {
			return err
		}
	}
}

// err returns the first group error in group order.
func (r *shardRun) err() error {
	for _, g := range r.groups {
		if g.firstErr != nil {
			return g.firstErr
		}
	}
	return nil
}

// exchange is the epoch barrier: it merges every group's deferred
// boundary crossings, sorts them into the canonical (crossing time, call
// id) order, and performs the handoff admissions single-threaded. A
// migration whose call already ended during the epoch (its holding time
// expired at the source cell before the barrier) is skipped.
func (r *shardRun) exchange(now float64) {
	var all []migration
	for _, g := range r.groups {
		all = append(all, g.migrations...)
		g.migrations = g.migrations[:0]
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		return all[i].c.req.ID < all[j].c.req.ID
	})

	for _, m := range all {
		c := m.c
		if c.ended {
			continue
		}
		src := r.groups[c.grp]
		r.barrier.HandoffAttempts++
		d := r.adm.Admit(m.dest, m.req)
		if !d.Accept {
			r.shardRelease(c, now)
			c.ended = true
			src.sim.Cancel(c.endEvt)
			r.barrier.Dropped++
			continue
		}
		r.shardRelease(c, now)
		r.barrier.HandoffAccepted++

		dst := r.group(m.dest)
		c.cell = m.dest
		c.req = m.req
		c.alloc = d.Granted(m.req)
		if c.cell == r.centre {
			cg := r.groups[0]
			cg.centreBU += c.alloc
			cg.observe(now)
		}
		// Re-home the call: its end event moves from the source group's
		// heap to the destination's. The end time is strictly beyond the
		// barrier — had it been inside the epoch it would have fired
		// already and the migration been skipped.
		src.sim.Cancel(c.endEvt)
		endEvt, err := dst.sim.AtOp(c.endAt, des.Op{Code: opEnd, Arg: c})
		if err != nil {
			dst.fail(err)
			continue
		}
		c.endEvt = endEvt
		c.grp = dst.id
		// Resume position checks on the destination heap, keeping the
		// call's original check cadence where possible. This first check
		// covers one interval.
		c.steps = 1
		checkAt := math.Max(m.at+r.cfg.CheckInterval, now)
		if _, err := dst.sim.AtOp(checkAt, des.Op{Code: opCheck, Arg: c}); err != nil {
			dst.fail(err)
		}
	}
}

// gather merges the groups' counters into the final network-wide Result.
// Integer counters are order-independent; the per-call bandwidth
// integrals are summed in call-id order so the floating-point result is
// canonical.
func (r *shardRun) gather() (Result, error) {
	if err := r.err(); err != nil {
		return Result{}, err
	}
	res := r.barrier
	var acc, req [numClassSlots]int
	for _, g := range r.groups {
		res.Requests += g.res.Requests
		res.Accepted += g.res.Accepted
		res.Blocked += g.res.Blocked
		res.Completed += g.res.Completed
		res.LeftNetwork += g.res.LeftNetwork
		for cl := range acc {
			acc[cl] += g.acceptedByClass[cl]
			req[cl] += g.requestsByClass[cl]
		}
	}
	res.NetworkRequests = res.Requests
	res.NetworkAccepted = res.Accepted

	for _, c := range r.byID {
		if c == nil {
			continue
		}
		res.BandwidthGranted += c.granted
		res.BandwidthRequested += c.requested
	}

	cg := r.groups[0]
	cg.observe(cg.sim.Now()) // flush the final occupancy segment
	if cg.firstErr != nil {
		return Result{}, cg.firstErr
	}
	res.CentreUtilization = cg.util.Mean()

	res.AcceptedByClass = make(map[traffic.Class]int)
	res.RequestsByClass = make(map[traffic.Class]int)
	for _, cl := range traffic.Classes() {
		if n := acc[cl]; n > 0 {
			res.AcceptedByClass[cl] = n
		}
		if n := req[cl]; n > 0 {
			res.RequestsByClass[cl] = n
		}
	}
	return res, nil
}

// RunOp implements des.Handler for one cell group.
func (g *groupState) RunOp(now float64, op des.Op) {
	switch op.Code {
	case opArrival:
		g.arrive(op.Arg.(*arrival), now)
	case opEnd:
		g.endCall(op.Arg.(*call), now)
	case opCheck:
		g.checkPosition(op.Arg.(*call), now)
	}
}

// arrive processes a new-call request at a cell this group owns.
func (g *groupState) arrive(a *arrival, now float64) {
	r := g.run
	bsX, bsY := r.layout.Center(a.cell)
	heading := hexgrid.NormalizeAngle(hexgrid.BearingDeg(a.x, a.y, bsX, bsY) + a.angle)

	req := cac.Request{
		ID:        a.id,
		X:         a.x,
		Y:         a.y,
		Speed:     a.speed,
		Angle:     a.angle,
		Bandwidth: a.class.Bandwidth(),
		RealTime:  a.class.RealTime(),
	}
	d := r.adm.Admit(a.cell, req)
	if !d.Accept {
		g.res.Blocked++
		return
	}
	g.res.Accepted++
	g.acceptedByClass[a.class]++

	g.calls = append(g.calls, call{
		req:     req,
		class:   a.class,
		cell:    a.cell,
		counted: true,
		grp:     g.id,
		endAt:   now + a.holding,
		alloc:   d.Granted(req),
		lastT:   now,
	})
	c := &g.calls[len(g.calls)-1]
	c.moverSrc.Reseed(a.moverSeed)
	c.mover = r.cfg.Mobility.NewMover(mobility.State{
		X: a.x, Y: a.y, SpeedKmh: a.speed, HeadingDeg: heading,
	}, &c.moverSrc)
	// byID entries are written only by the birth cell's owner and read by
	// other goroutines no earlier than the next barrier.
	r.byID[a.id] = c
	if a.cell == r.centre {
		g.centreBU += c.alloc
		g.observe(now)
	}

	endEvt, err := g.sim.AtOp(c.endAt, des.Op{Code: opEnd, Arg: c})
	if err != nil {
		g.fail(err)
		return
	}
	c.endEvt = endEvt
	if !r.cfg.Static {
		g.scheduleCheck(c, now)
	}
}

// checkPosition advances the mobile; a boundary crossing is deferred to
// the epoch barrier (any crossing, even into a cell this same group owns
// — one rule keeps the realisation independent of the partitioning),
// while leaving the network entirely is resolved locally.
func (g *groupState) checkPosition(c *call, now float64) {
	if c.ended {
		return
	}
	r := g.run
	c.advance(r.cfg.CheckInterval)
	st := c.mover.State()
	if r.layout.InCell(c.cell, st.X, st.Y) {
		g.scheduleCheck(c, now)
		return
	}
	newCell := r.layout.CellAt(st.X, st.Y)
	if newCell == c.cell {
		g.scheduleCheck(c, now)
		return
	}

	if !r.topo.Contains(newCell) {
		r.shardRelease(c, now)
		c.ended = true
		g.sim.Cancel(c.endEvt)
		g.res.LeftNetwork++
		return
	}

	// Freeze the handoff request at the crossing; the barrier admits it.
	bsX, bsY := r.layout.Center(newCell)
	hreq := c.req
	hreq.X, hreq.Y = st.X, st.Y
	hreq.Speed = st.SpeedKmh
	hreq.Angle = hexgrid.AngleOff(st.HeadingDeg, st.X, st.Y, bsX, bsY)
	hreq.Handoff = true
	g.migrations = append(g.migrations, migration{c: c, at: now, dest: newCell, req: hreq})
	// No next check: the call is in transit until the barrier re-homes it.
}

// scheduleCheck arms the next position check for a call this group owns,
// at the end of its safe horizon (nextCheck).
func (g *groupState) scheduleCheck(c *call, now float64) {
	at, steps := nextCheck(g.run.layout, c, g.run.cfg.CheckInterval, now)
	c.steps = steps
	if _, err := g.sim.AtOp(at, des.Op{Code: opCheck, Arg: c}); err != nil {
		g.fail(err)
	}
}

// endCall completes a call that finished its holding time at its current
// cell. A call in transit (crossing recorded, barrier not reached) ends
// at its source cell and the barrier skips the migration.
func (g *groupState) endCall(c *call, now float64) {
	if c.ended {
		return
	}
	c.ended = true
	r := g.run
	r.shardRelease(c, now)
	g.res.Completed++
}

// shardRelease frees the call's bandwidth at its current cell and closes
// its bandwidth-integral accounting up to now. The caller must own the
// call (its group's goroutine, or the barrier).
func (r *shardRun) shardRelease(c *call, now float64) {
	shardAccrue(c, now)
	g := r.groups[c.grp]
	if err := r.adm.Release(c.cell, c.req); err != nil {
		g.fail(fmt.Errorf("cellsim: release at %v: %w", c.cell, err))
		return
	}
	if c.cell == r.centre {
		cg := r.groups[0]
		cg.centreBU -= c.alloc
		cg.observe(now)
	}
}

// shardAccrue extends the call-local bandwidth integrals up to now at the
// current allocation. Keeping the sums on the call (instead of a shared
// accumulator) lets groups account in parallel; gather sums them in call-
// id order so the final float result is canonical.
func shardAccrue(c *call, now float64) {
	if now > c.lastT {
		c.granted += c.alloc * (now - c.lastT)
		c.requested += c.req.Bandwidth * (now - c.lastT)
	}
	c.lastT = now
}
