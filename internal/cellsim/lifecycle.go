package cellsim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"facsp/internal/cac"
	"facsp/internal/des"
	"facsp/internal/hexgrid"
	"facsp/internal/metrics"
	"facsp/internal/mobility"
	"facsp/internal/rng"
	"facsp/internal/stats"
	"facsp/internal/traffic"
)

// policy is everything the two engines do differently: four choices fixed
// once per run. Each keeps its engine's results bit-identical to that
// engine's reference realisation; the call lifecycle itself is shared.
type policy struct {
	// substreams draws each cell's arrivals from its own
	// rng.Substream(Seed, slot), cells in slot order, instead of from one
	// sequential Config.Seed stream in configuration order.
	substreams bool
	// deferHandoffs admits boundary crossings at the next epoch barrier
	// instead of the moment they are detected.
	deferHandoffs bool
	// countAll counts every cell's calls in the Result instead of only the
	// calls that originate at the tagged centre cell.
	countAll bool
	// sumByID accrues bandwidth integrals on each call and sums them in
	// call-id order at the end, instead of into one sum in event order.
	sumByID bool
}

var (
	// singleHeap is Run's policy: the paper's reference path.
	singleHeap = policy{}
	// sharded is RunSharded's policy: every choice that keeps a run
	// independent of how its cells are grouped and scheduled.
	sharded = policy{substreams: true, deferHandoffs: true, countAll: true, sumByID: true}
)

// Typed event op codes (des.Op.Code). Args are pointers into the run's
// arrival/call slabs, so scheduling an event never allocates.
const (
	opArrival = iota // Arg: *arrival
	opEnd            // Arg: *call
	opCheck          // Arg: *call
)

// numClassSlots sizes the per-class counter arrays; traffic classes are
// small consecutive integers starting at 1.
const numClassSlots = int(traffic.Video) + 1

// call is the simulator's per-connection state. Calls live by value in
// their group's pre-sized slab; events reference them by pointer, which
// stays valid because the slab never grows past its pre-sized capacity.
type call struct {
	req     cac.Request
	class   traffic.Class
	mover   mobility.Mover
	cell    hexgrid.Coord
	counted bool  // tracked in Result (policy.countAll, or born at the centre)
	grp     int32 // the group whose heap holds the call's events
	endAt   float64
	ended   bool
	endEvt  des.Handle
	// steps is how many CheckInterval advances the pending position check
	// performs (nextCheck).
	steps int
	// alloc is the bandwidth currently granted, which adaptive schemes may
	// move below req.Bandwidth mid-call; lastT is the simulation time the
	// bandwidth integrals were last accrued to, and granted/requested hold
	// them call-locally under policy.sumByID.
	alloc     float64
	lastT     float64
	granted   float64
	requested float64
	// moverSrc is the call's private mobility stream, reseeded per call
	// from the arrival's pre-drawn split seed.
	moverSrc rng.Source
}

// arrival is one pre-drawn connection request, stored by value in the
// run's arrival slab.
type arrival struct {
	id        uint64
	class     traffic.Class
	speed     float64
	angle     float64
	holding   float64
	x, y      float64
	moverSeed uint64
	cell      hexgrid.Coord
	counted   bool
}

// stream is one fully resolved per-cell request source: a CellTraffic
// entry with every inherited default filled in, or one cell's slice of the
// homogeneous paper set-up.
type stream struct {
	cell    hexgrid.Coord
	slot    int
	n       int
	mix     traffic.Mix
	profile traffic.RateProfile
	burst   *traffic.MMPP
	speed   Sampler
	angle   Sampler
	counted bool
}

// migration is one cross-cell handoff detected during an epoch and
// deferred to the epoch barrier.
type migration struct {
	c    *call
	at   float64 // crossing-detection time
	dest hexgrid.Coord
	req  cac.Request // handoff request frozen at the crossing
}

// engine is one simulation run: the configured network split into cell
// groups, each with its own event heap. Run drives one group on an engine
// recycled through runPool, so a long sweep reuses the same arenas instead
// of re-allocating them every run; RunSharded drives many groups in
// parallel between epoch barriers.
type engine struct {
	*Sim
	pol policy

	slotGroup []int32 // cell slot -> owning group
	groups    []*group
	src       rng.Source
	arrivals  []arrival
	calls     []call // backing for the groups' call slabs
	// byID maps call id -> call, set at admission: the adaptive observer's
	// lookup, and the id-ordered sum of policy.sumByID. Empty when neither
	// needs it.
	byID  []*call
	merge []migration // the epoch barrier's merge buffer

	// granted and requested are the event-order bandwidth integrals
	// (policy.sumByID unset).
	granted, requested float64
}

// group is one cell group's private slice of a run: its own event heap,
// call slab and counters. Nothing in it is touched by any other group
// between barriers, which is what makes the parallel phase race-free
// without locks.
type group struct {
	e       *engine
	id      int32
	sim     des.Sim
	offered int // arrivals predrawn for the group's cells
	calls   []call

	res             Result
	acceptedByClass [numClassSlots]int
	requestsByClass [numClassSlots]int

	migrations []migration

	// Centre-cell occupancy lives in group 0, which owns the topology's
	// slot-0 cell; the barrier (single-threaded, at a time no group has
	// passed) may also append observations.
	util     stats.TimeWeighted
	centreBU float64

	firstErr error
}

var runPool = sync.Pool{New: func() any { return new(engine) }}

// release drops references held by the run so pooled engines do not pin
// controllers, movers or the enclosing Sim.
func (e *engine) release() {
	e.Sim = nil
	clear(e.arrivals)
	clear(e.calls)
	clear(e.byID)
	clear(e.merge)
	for _, g := range e.groups {
		clear(g.migrations)
	}
}

// grow returns buf with length n, reusing its capacity when possible.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// run executes one simulation of s under the policy on a (possibly
// recycled) engine, with the given number of cell groups (at most one per
// topology cell) and workers.
func (e *engine) run(s *Sim, pol policy, nGroups, workers int) (Result, error) {
	e.Sim, e.pol = s, pol
	e.granted, e.requested = 0, 0
	e.slotGroup = grow(e.slotGroup, s.topo.Slots())
	if nGroups > 1 {
		for gi, slots := range s.topo.Partition(nGroups) {
			for _, slot := range slots {
				e.slotGroup[slot] = int32(gi)
			}
		}
	}
	if len(e.groups) != nGroups { // a recycled engine keeps its one group
		e.groups = make([]*group, nGroups)
		for i := range e.groups {
			e.groups[i] = new(group)
		}
	}
	for i, g := range e.groups {
		g.reset(e, int32(i))
	}
	e.groups[0].observe(0) // open the utilization window at time zero

	streams := e.streams()
	total := 0
	for _, st := range streams {
		total += st.n
	}
	e.byID = e.byID[:0]
	if e.armObserver() || pol.sumByID {
		e.byID = grow(e.byID, total+1)
	}
	if err := e.predraw(streams, total); err != nil {
		return Result{}, err
	}

	if pol.deferHandoffs {
		if err := e.loop(workers); err != nil {
			return Result{}, err
		}
	} else {
		e.groups[0].sim.Run(0)
	}
	return e.gather()
}

// reset readies a recycled group for a new run, keeping its buffers.
func (g *group) reset(e *engine, id int32) {
	g.e, g.id = e, id
	g.sim.Reset()
	g.sim.SetHandler(g)
	g.offered = 0
	g.migrations = g.migrations[:0]
	g.res = Result{}
	g.acceptedByClass = [numClassSlots]int{}
	g.requestsByClass = [numClassSlots]int{}
	g.util = stats.TimeWeighted{}
	g.centreBU = 0
	g.firstErr = nil
}

func (g *group) fail(err error) {
	if g.firstErr == nil {
		g.firstErr = err
	}
}

// observe samples the centre-cell occupancy into the utilization integral.
func (g *group) observe(now float64) {
	if err := g.util.Observe(now, g.centreBU); err != nil {
		g.fail(err)
	}
}

// group returns the group owning the given cell.
func (e *engine) group(cell hexgrid.Coord) *group {
	slot, ok := e.topo.Of(cell)
	if !ok {
		return nil
	}
	return e.groups[e.slotGroup[slot]]
}

// err returns the first group error in group order.
func (e *engine) err() error {
	for _, g := range e.groups {
		if g.firstErr != nil {
			return g.firstErr
		}
	}
	return nil
}

// streams resolves the run's traffic description into per-cell sources:
// PerCell in its order, or the paper's homogeneous set-up spelled out per
// cell in slot order (Requests at the tagged centre, NeighborRequests
// everywhere else). Under policy.substreams the sources are put in slot
// order, which numbers calls in that order.
func (e *engine) streams() []stream {
	cfg := e.cfg
	n := len(cfg.PerCell)
	if n == 0 {
		n = e.topo.Slots()
	}
	out := make([]stream, n)
	for i := range out {
		var ct CellTraffic
		switch {
		case len(cfg.PerCell) > 0:
			ct = cfg.PerCell[i]
		case i == 0:
			ct = CellTraffic{Cell: e.centre, Requests: cfg.Requests}
		default:
			ct = CellTraffic{Cell: e.topo.At(i), Requests: cfg.NeighborRequests}
		}
		slot, _ := e.topo.Of(ct.Cell) // Validate keeps PerCell cells inside
		st := stream{
			cell: ct.Cell, slot: slot, n: ct.Requests, mix: cfg.Mix,
			profile: ct.Profile, burst: ct.Burst,
			speed: cfg.Speed, angle: cfg.Angle,
			counted: e.pol.countAll || slot == 0,
		}
		if ct.Mix != nil {
			st.mix = *ct.Mix
		}
		if ct.Speed != nil {
			st.speed = ct.Speed
		}
		if ct.Angle != nil {
			st.angle = ct.Angle
		}
		out[i] = st
	}
	if e.pol.substreams {
		slices.SortFunc(out, func(a, b stream) int { return a.slot - b.slot })
	}
	return out
}

// predraw realises every request stream and schedules the arrivals into
// the owning groups' heaps; call ids are 1..total in stream order. Drawing
// all request attributes up front keeps a cell's request stream identical
// across admitters. Every draw — burst envelopes and thinning rejections
// included — comes from the run's Config.Seed stream in sequence, or under
// policy.substreams from the cell's own rng.Substream(Seed, slot), which
// makes the realised traffic independent of grouping and worker count.
func (e *engine) predraw(streams []stream, total int) error {
	e.arrivals = grow(e.arrivals, total)[:0]
	src := &e.src
	src.Reseed(e.cfg.Seed)
	nextID := uint64(1)
	for _, st := range streams {
		g := e.groups[e.slotGroup[st.slot]]
		if e.pol.substreams {
			src.Reseed(rng.Substream(e.cfg.Seed, uint64(st.slot)))
		}
		var env traffic.Envelope
		if st.burst != nil {
			env = st.burst.Envelope(src, e.cfg.Window)
		}
		for i := 0; i < st.n; i++ {
			at, err := sampleArrival(src, e.cfg.Window, st.profile, env)
			if err != nil {
				return err
			}
			class := st.mix.Sample(src)
			speed := st.speed(src)
			angle := st.angle(src)
			holding := src.Exp(e.cfg.HoldingMean)
			id := nextID
			nextID++
			if st.counted {
				g.res.Requests++
				g.requestsByClass[class]++
			}
			x, y := e.randomPointInCell(src, st.cell)
			moverSeed := src.SplitSeed()

			// The slab was pre-sized to the total request count, so the
			// append never reallocates and event pointers into it stay valid.
			e.arrivals = append(e.arrivals, arrival{
				id: id, class: class, speed: speed, angle: angle,
				holding: holding, x: x, y: y, moverSeed: moverSeed,
				cell: st.cell, counted: st.counted,
			})
			a := &e.arrivals[len(e.arrivals)-1]
			if _, err := g.sim.AtOp(at, des.Op{Code: opArrival, Arg: a}); err != nil {
				return err
			}
			g.offered++
		}
	}
	// Each group admits at most its offered calls into its own window of
	// one backing slab.
	e.calls = grow(e.calls, total)
	off := 0
	for _, g := range e.groups {
		g.calls = e.calls[off : off : off+g.offered]
		off += g.offered
	}
	return nil
}

// randomPointInCell draws a uniform point inside the hexagon of the given
// cell by rejection sampling from its tight bounding box: a pointy-top
// hexagon spans exactly [-inradius, inradius] in x and
// [-circumradius, circumradius] in y around its centre, so every point of
// the cell is reachable and the acceptance probability is the fixed
// area ratio (3√3/4)·r·w / (4·r·w) ≈ 0.65. Both half-extents come from
// the layout — the same geometry the InCell inradius fast path and CellAt
// use — so the sampler cannot drift from the lookup.
func (s *Sim) randomPointInCell(src *rng.Source, cell hexgrid.Coord) (x, y float64) {
	cx, cy := s.layout.Center(cell)
	w := s.layout.Inradius()
	r := s.layout.Size
	for {
		px := src.Uniform(-w, w)
		py := src.Uniform(-r, r)
		if s.layout.CellAt(cx+px, cy+py) == cell {
			return cx + px, cy + py
		}
	}
}

// armObserver installs the bandwidth observer when the admitter's
// controllers can reallocate on-going calls mid-flight, and reports
// whether it did. PerCell implements AdaptiveAdmitter for every scheme,
// so admitters exposing per-cell controllers are probed at the centre cell
// (the factories in this repository are homogeneous across the network)
// to spare non-adaptive runs the per-call bookkeeping; anything else is
// assumed adaptive if it accepts the observer.
func (e *engine) armObserver() bool {
	aa, ok := e.adm.(AdaptiveAdmitter)
	if !ok {
		return false
	}
	if cp, ok := e.adm.(interface {
		Controller(hexgrid.Coord) cac.Controller
	}); ok {
		if _, adaptive := cp.Controller(e.centre).(cac.Adaptive); !adaptive {
			return false
		}
	}
	aa.SetBandwidthObserver(e.reallocated)
	return true
}

// reallocated keeps a call's accounting — its bandwidth integrals and the
// centre occupancy — in sync with a mid-call bandwidth change. It fires
// synchronously inside Admit/Release at the call's cell, so on the
// goroutine of the group owning that cell (or the barrier), whose clock is
// the event's timestamp; a controller only reallocates calls at its own
// cell, so it touches only state that goroutine already owns.
func (e *engine) reallocated(cell hexgrid.Coord, id uint64, allocBU float64) {
	if id >= uint64(len(e.byID)) {
		return
	}
	c := e.byID[id]
	if c == nil || c.ended {
		return
	}
	g := e.group(cell)
	if g == nil {
		return
	}
	now := g.sim.Now()
	e.accrue(c, now)
	if cell == e.centre {
		e.occupy(allocBU-c.alloc, now)
	}
	c.alloc = allocBU
}

// RunOp implements des.Handler, dispatching one group's typed events.
func (g *group) RunOp(now float64, op des.Op) {
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
func (g *group) arrive(a *arrival, now float64) {
	e := g.e
	bsX, bsY := e.layout.Center(a.cell)
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
	g.res.NetworkRequests++
	d := e.adm.Admit(a.cell, req)
	e.export(a.cell, a.class, d.Accept, false)
	if !d.Accept {
		if a.counted {
			g.res.Blocked++
		}
		return
	}
	g.res.NetworkAccepted++
	if a.counted {
		g.res.Accepted++
		g.acceptedByClass[a.class]++
	}

	g.calls = append(g.calls, call{
		req:     req,
		class:   a.class,
		cell:    a.cell,
		counted: a.counted,
		grp:     g.id,
		endAt:   now + a.holding,
		alloc:   d.Granted(req), // adaptive schemes may grant below the request
		lastT:   now,
	})
	c := &g.calls[len(g.calls)-1]
	c.moverSrc.Reseed(a.moverSeed)
	c.mover = e.cfg.Mobility.NewMover(mobility.State{
		X: a.x, Y: a.y, SpeedKmh: a.speed, HeadingDeg: heading,
	}, &c.moverSrc)
	// byID entries are written only by the birth cell's owner and read by
	// other goroutines no earlier than the next barrier.
	if len(e.byID) > 0 {
		e.byID[a.id] = c
	}
	if a.cell == e.centre {
		e.occupy(c.alloc, now)
	}

	endEvt, err := g.sim.AtOp(c.endAt, des.Op{Code: opEnd, Arg: c})
	if err != nil {
		g.fail(err)
		return
	}
	c.endEvt = endEvt
	if !e.cfg.Static {
		g.scheduleCheck(c, now)
	}
}

// export bumps the optional metrics sink for one admission outcome:
// accepts count as admits, denied new calls as blocks, denied handoffs as
// drops. Bumps are per-slot atomic adds, safe from any group; with no
// sink configured this is one nil check.
func (e *engine) export(at hexgrid.Coord, class traffic.Class, accept, handoff bool) {
	reg := e.cfg.Metrics
	if reg == nil {
		return
	}
	slot, ok := e.topo.Of(at)
	if !ok {
		return
	}
	switch {
	case accept:
		reg.Inc(slot, metrics.Admits(class))
	case handoff:
		reg.Inc(slot, metrics.Drops(class))
	default:
		reg.Inc(slot, metrics.Blocks(class))
	}
}

// scheduleCheck arms the next position check for a call this group owns,
// at the end of its safe horizon (nextCheck).
func (g *group) scheduleCheck(c *call, now float64) {
	at, steps := nextCheck(g.e.layout, c, g.e.cfg.CheckInterval, now)
	c.steps = steps
	if _, err := g.sim.AtOp(at, des.Op{Code: opCheck, Arg: c}); err != nil {
		g.fail(err)
	}
}

// checkPosition advances the mobile and hands the call off if it crossed a
// cell boundary: at once, or under policy.deferHandoffs at the epoch
// barrier (any crossing, even into a cell this same group owns — one rule
// keeps the realisation independent of the partitioning). Leaving the
// network is always resolved at once.
func (g *group) checkPosition(c *call, now float64) {
	if c.ended {
		return
	}
	e := g.e
	c.advance(e.cfg.CheckInterval)
	st := c.mover.State()
	// Fast path: still inside the serving cell's inscribed circle — no
	// boundary crossing possible, so skip the full cube-rounding lookup.
	if e.layout.InCell(c.cell, st.X, st.Y) {
		g.scheduleCheck(c, now)
		return
	}
	newCell := e.layout.CellAt(st.X, st.Y)
	if newCell == c.cell {
		g.scheduleCheck(c, now)
		return
	}

	if !e.topo.Contains(newCell) {
		// The mobile left the simulated network; its capacity is freed.
		e.releaseCall(c, now)
		e.retire(c)
		if c.counted {
			g.res.LeftNetwork++
		}
		return
	}

	// Handoff: the on-going call requests admission at the new cell, with
	// the request frozen at the crossing.
	bsX, bsY := e.layout.Center(newCell)
	hreq := c.req
	hreq.X, hreq.Y = st.X, st.Y
	hreq.Speed = st.SpeedKmh
	hreq.Angle = hexgrid.AngleOff(st.HeadingDeg, st.X, st.Y, bsX, bsY)
	hreq.Handoff = true
	if e.pol.deferHandoffs {
		// No next check: the call is in transit until the barrier.
		g.migrations = append(g.migrations, migration{c: c, at: now, dest: newCell, req: hreq})
		return
	}
	e.handoff(c, newCell, hreq, now, now)
}

// handoff admits a call that crossed into dest at time at, deciding it at
// time now. A denied call is dropped mid-call — the QoS violation the
// paper's priority scheme is designed to avoid; an admitted one moves to
// dest and resumes its position checks. Under policy.deferHandoffs the
// call is re-homed to dest's group: its end event moves heaps, and its
// first check there covers one interval from the crossing.
func (e *engine) handoff(c *call, dest hexgrid.Coord, hreq cac.Request, at, now float64) {
	src := e.groups[c.grp]
	if c.counted {
		src.res.HandoffAttempts++
	}
	d := e.adm.Admit(dest, hreq)
	e.export(dest, c.class, d.Accept, true)
	e.releaseCall(c, now)
	if !d.Accept {
		e.retire(c)
		if c.counted {
			src.res.Dropped++
		}
		return
	}
	if c.counted {
		src.res.HandoffAccepted++
	}
	c.cell = dest
	c.req = hreq
	c.alloc = d.Granted(hreq) // the new cell may grant a degraded rate
	if dest == e.centre {
		e.occupy(c.alloc, now)
	}
	if !e.pol.deferHandoffs {
		src.scheduleCheck(c, now)
		return
	}
	// The end time is strictly beyond the barrier: had it been inside the
	// epoch it would have fired already and the migration been skipped.
	dst := e.group(dest)
	src.sim.Cancel(c.endEvt)
	endEvt, err := dst.sim.AtOp(c.endAt, des.Op{Code: opEnd, Arg: c})
	if err != nil {
		dst.fail(err)
		return
	}
	c.endEvt = endEvt
	c.grp = dst.id
	c.steps = 1
	checkAt := math.Max(at+e.cfg.CheckInterval, now)
	if _, err := dst.sim.AtOp(checkAt, des.Op{Code: opCheck, Arg: c}); err != nil {
		dst.fail(err)
	}
}

// endCall completes a call that finished its holding time at its current
// cell. A call in transit (crossing recorded, barrier not reached) ends at
// its source cell and the barrier skips the migration.
func (g *group) endCall(c *call, now float64) {
	if c.ended {
		return
	}
	g.e.retire(c) // cancelling the end event that just fired is a no-op
	g.e.releaseCall(c, now)
	if c.counted {
		g.res.Completed++
	}
}

// retire removes a finished call from the simulation: the observer stops
// tracking it and its pending end event is cancelled.
func (e *engine) retire(c *call) {
	c.ended = true
	e.groups[c.grp].sim.Cancel(c.endEvt)
}

// releaseCall frees the call's bandwidth at its current cell, closing its
// bandwidth-integral accounting up to now. The caller must own the call
// (its group's goroutine, or the barrier).
func (e *engine) releaseCall(c *call, now float64) {
	e.accrue(c, now)
	if err := e.adm.Release(c.cell, c.req); err != nil {
		e.groups[c.grp].fail(fmt.Errorf("cellsim: release at %v: %w", c.cell, err))
		return
	}
	if c.cell == e.centre {
		e.occupy(-c.alloc, now)
	}
}

// occupy moves the centre cell's occupancy by deltaBU at time now.
func (e *engine) occupy(deltaBU, now float64) {
	cg := e.groups[0]
	cg.centreBU += deltaBU
	cg.observe(now)
}

// accrue extends a counted call's received/requested bandwidth integrals
// up to now at its current allocation: on the call under policy.sumByID
// (groups then never write a shared sum), into the run's sums otherwise.
func (e *engine) accrue(c *call, now float64) {
	if c.counted && now > c.lastT {
		if e.pol.sumByID {
			c.granted += c.alloc * (now - c.lastT)
			c.requested += c.req.Bandwidth * (now - c.lastT)
		} else {
			e.granted += c.alloc * (now - c.lastT)
			e.requested += c.req.Bandwidth * (now - c.lastT)
		}
	}
	c.lastT = now
}

// gather merges the groups' counters into the run's Result. Integer
// counters are order-independent; under policy.sumByID the per-call
// bandwidth integrals are summed in call-id order so the floating-point
// result is canonical.
func (e *engine) gather() (Result, error) {
	cg := e.groups[0]
	cg.observe(cg.sim.Now()) // flush the final occupancy segment
	if err := e.err(); err != nil {
		return Result{}, err
	}
	var res Result
	var acc, req [numClassSlots]int
	for _, g := range e.groups {
		res.Requests += g.res.Requests
		res.Accepted += g.res.Accepted
		res.Blocked += g.res.Blocked
		res.HandoffAttempts += g.res.HandoffAttempts
		res.HandoffAccepted += g.res.HandoffAccepted
		res.Dropped += g.res.Dropped
		res.Completed += g.res.Completed
		res.LeftNetwork += g.res.LeftNetwork
		res.NetworkRequests += g.res.NetworkRequests
		res.NetworkAccepted += g.res.NetworkAccepted
		for cl := range acc {
			acc[cl] += g.acceptedByClass[cl]
			req[cl] += g.requestsByClass[cl]
		}
	}
	res.CentreUtilization = cg.util.Mean()
	res.BandwidthGranted, res.BandwidthRequested = e.granted, e.requested
	if e.pol.sumByID {
		for _, c := range e.byID {
			if c != nil {
				res.BandwidthGranted += c.granted
				res.BandwidthRequested += c.requested
			}
		}
	}

	// Only classes that were actually seen get an entry, matching
	// incremental map accumulation.
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
