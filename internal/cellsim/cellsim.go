// Package cellsim is the event-driven cellular network simulator used for
// every figure in the paper's evaluation and for the scenario harness that
// grows the evaluation beyond it.
//
// A simulation instantiates a hexagonal cluster of cells around a tagged
// centre cell, offers connection requests to the base stations over an
// arrival window, and lets admitted mobiles move (handing off between
// cells, possibly out of the network) until every call completes.
// Admission is delegated to an Admitter, so the same run can be repeated
// with FACS, FACS-P, SCC or any baseline, which is how the head-to-head
// figures are produced.
//
// Traffic comes in two shapes. The paper's set-up (Config.Requests /
// Config.NeighborRequests) aims a homogeneous stationary stream at every
// cell and counts the centre cell's admissions. Heterogeneous set-ups
// (Config.PerCell) instead describe one explicit stream per cell — its
// own request count, class mix, mobility samplers, piecewise-linear
// arrival-rate profile, and MMPP on/off burst modulation — which is what
// internal/scenario compiles its declarative scenario files into.
//
// The simulation core is allocation-free in steady state: events are
// typed des ops over pre-drawn arrival and call slabs, per-run state is
// recycled through a pool across replications, and per-cell lookups run
// over a compiled dense topology (hexgrid.Topology) instead of maps.
// Sweep throughput is tracked by internal/perf and cmd/facs-bench.
//
// One call lifecycle (lifecycle.go) runs the network as cell groups, each
// on its own event heap, and both execution engines drive it. Run is the
// one-group case — the paper's reference path, bit-for-bit stable since
// the first release. RunSharded (sharded.go) partitions the topology into
// many groups run in parallel and exchanges cross-cell handoffs at epoch
// barriers — the engine for city-scale topologies of hundreds to
// thousands of cells. What differs between them is a policy of four
// choices fixed per run (arrival draws, handoff timing, which calls are
// counted, and the summation order of the bandwidth integrals), each
// keeping that engine's results bit-identical to its reference.
//
// All randomness flows from the Config seed; runs are reproducible
// bit-for-bit regardless of how the enclosing sweep is sharded.
package cellsim

import (
	"fmt"

	"facsp/internal/cac"
	"facsp/internal/hexgrid"
	"facsp/internal/metrics"
	"facsp/internal/mobility"
	"facsp/internal/rng"
	"facsp/internal/traffic"
)

// Admitter is the network-side admission interface the simulator drives.
// Per-cell controllers are adapted with PerCell; network-level schemes
// (SCC) implement it directly.
type Admitter interface {
	// Admit decides a request at the given cell and reserves bandwidth on
	// acceptance.
	Admit(cell hexgrid.Coord, req cac.Request) cac.Decision
	// Release frees the bandwidth a previously admitted request holds at
	// the given cell.
	Release(cell hexgrid.Coord, req cac.Request) error
}

// AdaptiveAdmitter is implemented by admitters whose controllers can
// change the bandwidth of on-going connections mid-call (internal/adapt).
// The simulator installs an observer to keep its per-call accounting — and
// the received/requested bandwidth QoS metric — in sync.
type AdaptiveAdmitter interface {
	Admitter
	// SetBandwidthObserver installs the network-level observer for
	// mid-call bandwidth changes: cell is where the connection lives, id
	// identifies it and allocBU is its new allocation.
	SetBandwidthObserver(func(cell hexgrid.Coord, id uint64, allocBU float64))
}

// TopologyCompiler is implemented by admitters that can precompile
// per-cell state over a network topology's dense slot numbering
// (hexgrid.Topology). The simulator invokes it once at construction so
// per-cell lookups on the admission hot path become slice indexing
// instead of map access. Compilation must instantiate every cell's state
// eagerly: the sharded runner admits on different cells from different
// worker goroutines, which is only race-free when no lazy first-use
// writes remain.
type TopologyCompiler interface {
	CompileTopology(*hexgrid.Topology)
}

// PerCell adapts a factory of independent per-cell controllers (the shape
// of FACS, FACS-P and the classic baselines) to the Admitter interface.
// When a controller implements cac.Adaptive, its mid-call bandwidth
// changes are forwarded to the observer installed with
// SetBandwidthObserver, tagged with the controller's cell.
//
// Controllers for cells inside a compiled topology (CompileTopology) live
// in a dense slice; cells outside it fall back to a map, so a PerCell
// admitter keeps working for arbitrary coordinates.
type PerCell struct {
	factory func(hexgrid.Coord) cac.Controller
	obs     func(cell hexgrid.Coord, id uint64, allocBU float64)

	topo  *hexgrid.Topology
	dense []cac.Controller
	extra map[hexgrid.Coord]cac.Controller // cells outside the compiled topology
}

var (
	_ Admitter         = (*PerCell)(nil)
	_ AdaptiveAdmitter = (*PerCell)(nil)
	_ TopologyCompiler = (*PerCell)(nil)
)

// NewPerCell builds a PerCell admitter; factory is invoked lazily, once
// per cell.
func NewPerCell(factory func(hexgrid.Coord) cac.Controller) *PerCell {
	return &PerCell{
		factory: factory,
		extra:   make(map[hexgrid.Coord]cac.Controller),
	}
}

// CompileTopology implements TopologyCompiler: controllers for cells of
// the topology are kept in a dense slice, and every cell's controller is
// instantiated eagerly so concurrent Admit calls on distinct cells (the
// sharded runner) never race on lazy first-use writes. Controllers
// created before the call are re-homed, preserving their state.
func (p *PerCell) CompileTopology(t *hexgrid.Topology) {
	if p.topo == t {
		return
	}
	old := p.all()
	p.topo = t
	p.dense = make([]cac.Controller, t.Slots())
	p.extra = make(map[hexgrid.Coord]cac.Controller)
	for cell, c := range old {
		p.put(cell, c)
	}
	for slot := range p.dense {
		if p.dense[slot] == nil {
			cell := t.At(slot)
			c := p.factory(cell)
			p.dense[slot] = c
			p.install(cell, c)
		}
	}
}

// all snapshots every live controller keyed by cell.
func (p *PerCell) all() map[hexgrid.Coord]cac.Controller {
	out := make(map[hexgrid.Coord]cac.Controller, len(p.extra)+len(p.dense))
	for cell, c := range p.extra {
		out[cell] = c
	}
	if p.topo != nil {
		for slot, c := range p.dense {
			if c != nil {
				out[p.topo.At(slot)] = c
			}
		}
	}
	return out
}

// put stores a controller in the dense slice when its cell belongs to the
// compiled topology, the fallback map otherwise.
func (p *PerCell) put(cell hexgrid.Coord, c cac.Controller) {
	if p.topo != nil {
		if slot, ok := p.topo.Of(cell); ok {
			p.dense[slot] = c
			return
		}
	}
	p.extra[cell] = c
}

// Controller returns the cell's controller, creating it on first use.
// Cells of a compiled topology are always pre-created, so for them this is
// a read-only slice lookup.
func (p *PerCell) Controller(cell hexgrid.Coord) cac.Controller {
	if p.topo != nil {
		if slot, ok := p.topo.Of(cell); ok {
			return p.dense[slot]
		}
	}
	c, ok := p.extra[cell]
	if !ok {
		c = p.factory(cell)
		p.extra[cell] = c
		p.install(cell, c)
	}
	return c
}

// SetBandwidthObserver implements AdaptiveAdmitter, wiring existing and
// future adaptive per-cell controllers to the observer.
func (p *PerCell) SetBandwidthObserver(obs func(cell hexgrid.Coord, id uint64, allocBU float64)) {
	p.obs = obs
	for cell, c := range p.all() {
		p.install(cell, c)
	}
}

// install binds an adaptive controller's reallocation events to this
// admitter's observer, tagged with the controller's cell.
func (p *PerCell) install(cell hexgrid.Coord, c cac.Controller) {
	a, ok := c.(cac.Adaptive)
	if !ok {
		return
	}
	if p.obs == nil {
		a.SetBandwidthObserver(nil)
		return
	}
	obs := p.obs
	a.SetBandwidthObserver(func(id uint64, allocBU float64) { obs(cell, id, allocBU) })
}

// Admit implements Admitter.
func (p *PerCell) Admit(cell hexgrid.Coord, req cac.Request) cac.Decision {
	return p.Controller(cell).Admit(req)
}

// Release implements Admitter.
func (p *PerCell) Release(cell hexgrid.Coord, req cac.Request) error {
	return p.Controller(cell).Release(req)
}

// Sampler draws one scalar per call; scenario knobs (pinned speed, pinned
// angle) are expressed as samplers.
type Sampler func(src *rng.Source) float64

// Fixed returns a Sampler that always yields v.
func Fixed(v float64) Sampler { return func(*rng.Source) float64 { return v } }

// Uniform returns a Sampler drawing uniformly from [lo, hi).
func Uniform(lo, hi float64) Sampler {
	return func(src *rng.Source) float64 { return src.Uniform(lo, hi) }
}

// CellTraffic describes the independent request stream offered to one
// cell of a heterogeneous set-up (Config.PerCell). The zero value of every
// optional field inherits the run-wide default from Config.
type CellTraffic struct {
	// Cell is the stream's target cell; it must lie inside the cluster.
	// Streams at the centre cell are the counted, headline-metric traffic;
	// every other stream is background load.
	Cell hexgrid.Coord
	// Requests is the number of requesting connections offered to the cell
	// over the arrival window.
	Requests int
	// Mix overrides the run's service-class distribution; nil inherits
	// Config.Mix.
	Mix *traffic.Mix
	// Profile shapes *when* the stream's requests arrive: arrival times are
	// thinned against this piecewise-linear relative intensity, so a
	// flash-crowd ramp or a diurnal curve concentrates the same number of
	// calls into its busy period. Empty means stationary (uniform) arrivals.
	Profile traffic.RateProfile
	// Burst layers stochastic on/off (MMPP) modulation on top of Profile:
	// one burst envelope is realised per run from the Config seed and
	// multiplies the profile's intensity. Nil means no burst modulation.
	Burst *traffic.MMPP
	// Speed and Angle override the run's mobility samplers for this
	// stream's users; nil inherits Config.Speed / Config.Angle.
	Speed Sampler
	Angle Sampler
}

// Config parameterises one simulation run.
type Config struct {
	// Requests is the number of requesting connections aimed at the
	// centre cell (the x axis of Figs. 7-10).
	Requests int
	// NeighborRequests is the number of requesting connections offered to
	// every non-centre cell over the same window, making the network
	// homogeneous the way the paper's single-number load axis implies.
	// Neighbour traffic contends with handoffs but is not counted in the
	// headline acceptance metric.
	NeighborRequests int
	// PerCell, when non-empty, replaces the homogeneous Requests /
	// NeighborRequests traffic with one explicit stream per listed cell
	// (cells without an entry receive no new-call traffic). It is how
	// internal/scenario expresses hot spots, dead zones, per-cell class
	// mixes, time-varying arrival profiles and bursty MMPP arrivals.
	// Requests and NeighborRequests must be zero when PerCell is set;
	// the headline metric counts the centre cell's streams.
	PerCell []CellTraffic
	// Window is the arrival window in seconds; request arrival times are
	// uniform over it.
	Window float64
	// HoldingMean is the mean exponential call duration in seconds.
	HoldingMean float64
	// Rings is the cluster radius in cells around the tagged centre
	// (1 -> 7 cells, 2 -> 19 cells). Must be zero when Topology is set.
	Rings int
	// Topology, when non-nil, replaces the Rings disk with an arbitrary
	// compiled cell set — multiple clusters, irregular shapes, dead zones
	// (the city generator's output). The tagged centre cell is the
	// topology's slot-0 cell; for a DiskTopology that is the disk's
	// centre, so disk configs behave identically either way.
	Topology *hexgrid.Topology
	// CellRadius is the hexagon circumradius in metres.
	CellRadius float64
	// Mix is the service-class distribution.
	Mix traffic.Mix
	// Speed samples each user's speed in km/h.
	Speed Sampler
	// Angle samples each user's initial trajectory angle, in degrees
	// relative to the bearing toward the serving base station (the
	// paper's An; 0 = straight at the BS).
	Angle Sampler
	// Mobility moves admitted users; nil defaults to the paper-aligned
	// SmoothTurn model.
	Mobility mobility.Model
	// CheckInterval is the handoff-detection granularity in seconds: a
	// mobile's position is integrated and checked for a cell crossing
	// every CheckInterval. Both engines skip the checks that provably
	// cannot find one: when the mover is mobility.Bounded, one event
	// covers the longest stretch over which the mobile stays inside its
	// cell's inscribed circle, advancing the mover once per interval when
	// it fires. Results are bit-identical to checking every interval.
	CheckInterval float64
	// Static disables spatial motion: admitted calls hold their bandwidth
	// at the admission cell for their whole holding time and never hand
	// off. Use it for decision-level sensitivity sweeps where cell
	// residence differences across scenarios would confound the admission
	// policy under study (see internal/experiment Fig9).
	Static bool
	// Metrics, when non-nil, receives the run's per-cell admission
	// outcomes — admits, blocks (denied new calls) and drops (denied
	// handoffs) by class, indexed by topology slot — the same series the
	// admission daemon (internal/bsd) exports, so long sweeps can be
	// scraped like a live cell bank. The registry must cover at least as
	// many cells as the topology has slots. Bumps are single atomic adds,
	// so the event loop stays allocation-free and both engines export:
	// RunSharded's groups bump their own cells' counters in parallel. Every
	// attempt is counted, whether or not the Result counts its call.
	Metrics *metrics.Registry
	// Seed drives all randomness of the run.
	Seed uint64
}

// DefaultConfig returns the Section 4 simulation set-up: the paper's
// traffic mix, uniform 0-120 km/h speeds, uniform angles, a 7-cell
// cluster, and window/holding constants calibrated in EXPERIMENTS.md.
func DefaultConfig(requests int, seed uint64) Config {
	return Config{
		Requests:         requests,
		NeighborRequests: requests,
		Window:           600,
		HoldingMean:      180,
		Rings:            1,
		CellRadius:       1000,
		Mix:              traffic.DefaultMix(),
		Speed:            Uniform(0, 120),
		Angle:            Uniform(-180, 180),
		Mobility:         mobility.DefaultSmoothTurn(),
		CheckInterval:    1,
		Seed:             seed,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Requests < 0 {
		return fmt.Errorf("cellsim: negative request count %d", c.Requests)
	}
	if c.NeighborRequests < 0 {
		return fmt.Errorf("cellsim: negative neighbour request count %d", c.NeighborRequests)
	}
	if c.Window <= 0 {
		return fmt.Errorf("cellsim: window %v must be positive", c.Window)
	}
	if c.HoldingMean <= 0 {
		return fmt.Errorf("cellsim: holding mean %v must be positive", c.HoldingMean)
	}
	if c.Rings < 0 {
		return fmt.Errorf("cellsim: negative ring count %d", c.Rings)
	}
	if c.Rings > 0 && c.Topology != nil {
		return fmt.Errorf("cellsim: Rings %d and Topology are mutually exclusive", c.Rings)
	}
	if c.CellRadius <= 0 {
		return fmt.Errorf("cellsim: cell radius %v must be positive", c.CellRadius)
	}
	if err := c.Mix.Validate(); err != nil {
		return err
	}
	if c.Speed == nil || c.Angle == nil {
		return fmt.Errorf("cellsim: nil speed or angle sampler")
	}
	if c.CheckInterval <= 0 {
		return fmt.Errorf("cellsim: check interval %v must be positive", c.CheckInterval)
	}
	if len(c.PerCell) > 0 {
		if c.Requests > 0 || c.NeighborRequests > 0 {
			return fmt.Errorf("cellsim: PerCell traffic and Requests/NeighborRequests are mutually exclusive")
		}
		seen := make(map[hexgrid.Coord]bool, len(c.PerCell))
		for i, ct := range c.PerCell {
			if c.Topology != nil {
				if !c.Topology.Contains(ct.Cell) {
					return fmt.Errorf("cellsim: PerCell[%d] cell %v outside the topology", i, ct.Cell)
				}
			} else if hexgrid.Distance(ct.Cell, hexgrid.Coord{}) > c.Rings {
				return fmt.Errorf("cellsim: PerCell[%d] cell %v outside the %d-ring cluster", i, ct.Cell, c.Rings)
			}
			if seen[ct.Cell] {
				return fmt.Errorf("cellsim: duplicate PerCell entry for cell %v", ct.Cell)
			}
			seen[ct.Cell] = true
			if ct.Requests < 0 {
				return fmt.Errorf("cellsim: PerCell[%d] negative request count %d", i, ct.Requests)
			}
			if ct.Mix != nil {
				if err := ct.Mix.Validate(); err != nil {
					return fmt.Errorf("cellsim: PerCell[%d]: %w", i, err)
				}
			}
			if err := ct.Profile.Validate(); err != nil {
				return fmt.Errorf("cellsim: PerCell[%d]: %w", i, err)
			}
			if ct.Burst != nil {
				if err := ct.Burst.Validate(); err != nil {
					return fmt.Errorf("cellsim: PerCell[%d]: %w", i, err)
				}
			}
		}
	}
	return nil
}

// Result aggregates one run's call-level accounting.
type Result struct {
	// Requests is the number of new-call requests offered to the centre
	// cell.
	Requests int
	// Accepted counts new calls admitted at the centre cell.
	Accepted int
	// Blocked counts new calls denied at the centre cell.
	Blocked int
	// HandoffAttempts counts cell-boundary crossings that required
	// admission at a neighbour.
	HandoffAttempts int
	// HandoffAccepted counts successful handoffs.
	HandoffAccepted int
	// Dropped counts on-going calls lost because a handoff was denied.
	Dropped int
	// Completed counts calls that finished their holding time in-network.
	Completed int
	// LeftNetwork counts calls whose mobile exited the simulated cluster.
	LeftNetwork int
	// AcceptedByClass breaks Accepted down per service class.
	AcceptedByClass map[traffic.Class]int
	// RequestsByClass breaks Requests down per service class.
	RequestsByClass map[traffic.Class]int
	// CentreUtilization is the time-weighted mean occupancy of the centre
	// cell in BU over the arrival window.
	CentreUtilization float64
	// NetworkRequests and NetworkAccepted count new-call admissions across
	// the whole cluster, including background neighbour traffic.
	NetworkRequests int
	NetworkAccepted int
	// BandwidthGranted and BandwidthRequested are the time integrals
	// (BU x seconds) of the bandwidth actually allocated to — and requested
	// by — the centre cell's admitted calls over their in-network lifetime.
	// Adaptive schemes (internal/adapt) may serve elastic calls below their
	// requested rate, opening a gap between the two; for every other scheme
	// they are equal.
	BandwidthGranted   float64
	BandwidthRequested float64
}

// AcceptedPct returns the figures' y axis: the percentage of requesting
// connections admitted at the centre cell (100 when no requests were
// offered, matching the plots' starting point).
func (r Result) AcceptedPct() float64 {
	if r.Requests == 0 {
		return 100
	}
	return 100 * float64(r.Accepted) / float64(r.Requests)
}

// DropPct returns the percentage of admitted calls that were later
// dropped at a handoff.
func (r Result) DropPct() float64 {
	if r.Accepted == 0 {
		return 0
	}
	return 100 * float64(r.Dropped) / float64(r.Accepted)
}

// BandwidthRatio returns the degradation-ratio QoS metric: the
// time-weighted mean received/requested bandwidth of the centre cell's
// admitted calls, in [0, 1]. 1 means every call was served at its full
// requested rate for its whole lifetime (always true for non-adaptive
// schemes); lower values measure how hard an adaptive scheme squeezed
// on-going calls to avoid dropping handoffs.
func (r Result) BandwidthRatio() float64 {
	if r.BandwidthRequested == 0 {
		return 1
	}
	return r.BandwidthGranted / r.BandwidthRequested
}

// Sim runs cellular admission simulations.
type Sim struct {
	cfg    Config
	adm    Admitter
	layout hexgrid.Layout
	topo   *hexgrid.Topology // compiled dense network topology
	centre hexgrid.Coord
}

// New constructs a simulator for the given config and admitter.
func New(cfg Config, adm Admitter) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if adm == nil {
		return nil, fmt.Errorf("cellsim: nil admitter")
	}
	if cfg.Mobility == nil {
		cfg.Mobility = mobility.DefaultSmoothTurn()
	}
	topo := cfg.Topology
	if topo == nil {
		// The classic set-up: a disk around the origin in ring order, so
		// slot 0 is the tagged centre and stream scheduling order — and
		// with it every RNG draw — matches the pre-topology simulator
		// bit for bit.
		topo = hexgrid.DiskTopology(hexgrid.Coord{}, cfg.Rings)
	}
	if cfg.Metrics != nil && cfg.Metrics.Cells() < topo.Slots() {
		return nil, fmt.Errorf("cellsim: metrics registry covers %d cells, topology has %d slots",
			cfg.Metrics.Cells(), topo.Slots())
	}
	if tc, ok := adm.(TopologyCompiler); ok {
		tc.CompileTopology(topo)
	}
	return &Sim{
		cfg:    cfg,
		adm:    adm,
		layout: hexgrid.NewLayout(cfg.CellRadius),
		topo:   topo,
		centre: topo.At(0),
	}, nil
}

// Run executes one complete simulation and returns its accounting.
func (s *Sim) Run() (Result, error) {
	e := runPool.Get().(*engine)
	res, err := e.run(s, singleHeap, 1, 1)
	e.release()
	runPool.Put(e)
	return res, err
}

// maxThinningTries bounds the rejection loop of arrival-time thinning; at
// any sane acceptance probability the bound is unreachable, and hitting it
// surfaces a near-zero-intensity scenario as an error instead of a hang.
const maxThinningTries = 1 << 16

// sampleArrival draws one arrival time in [0, window). Stationary streams
// draw uniformly (exactly the paper's set-up, and exactly one src draw);
// time-varying streams thin a uniform proposal against the product of the
// deterministic rate profile and the realised burst envelope, which is the
// order-statistics view of a non-homogeneous arrival process with the
// offered-call count held fixed.
func sampleArrival(src *rng.Source, window float64, profile traffic.RateProfile, env traffic.Envelope) (float64, error) {
	if env.MaxRate() <= 0 {
		// Degenerate burst realisation (a zero-rate off state covering the
		// whole window): the envelope carries no shape, but a deterministic
		// profile still does — drop only the envelope and keep thinning
		// against the profile.
		env = traffic.Envelope{}
	}
	if len(profile) == 0 && env.Flat() {
		return src.Uniform(0, window), nil
	}
	// Validation guarantees profile.MaxRate() > 0 and the envelope is
	// either flat (1) or has a positive peak here.
	peak := profile.MaxRate() * env.MaxRate()
	for tries := 0; tries < maxThinningTries; tries++ {
		t := src.Uniform(0, window)
		if src.Float64()*peak <= profile.Rate(t)*env.Rate(t) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("cellsim: arrival-time thinning stalled after %d draws (profile/burst intensity ~zero across the window)", maxThinningTries)
}
