// Package mobility provides the user-movement models of the cellular
// simulator.
//
// The model that matters for the paper is SmoothTurn: a constant-speed
// walker whose heading performs a random walk with speed-dependent
// volatility — fast users cannot change direction easily, slow users
// wander. This is precisely the mechanism the paper invokes to explain
// Fig. 8 ("with the increase of the user speed, the user direction can not
// be changed easily, this results in a better prediction of the user
// direction"). ConstantVelocity, GaussMarkov and RandomWaypoint are
// provided for ablations.
//
// A Mover may also implement Bounded, promising a maximum speed. The
// simulator uses that bound to skip position checks it can prove would
// find the mobile still deep inside its cell: ConstantVelocity, SmoothTurn
// and RandomWaypoint keep a constant speed and implement it; GaussMarkov
// redraws its speed every step, has no bound and is checked every
// interval.
package mobility

import (
	"fmt"
	"math"

	"facsp/internal/hexgrid"
	"facsp/internal/rng"
)

// State is a mobile's kinematic state: position in metres, speed in km/h,
// heading in degrees counter-clockwise from the +x axis.
type State struct {
	X          float64
	Y          float64
	SpeedKmh   float64
	HeadingDeg float64
}

// SpeedMS returns the speed in metres per second.
func (s State) SpeedMS() float64 { return s.SpeedKmh / 3.6 }

// step moves the state dt seconds along its heading.
func (s State) step(dt float64) State {
	rad := s.HeadingDeg * math.Pi / 180
	d := s.SpeedMS() * dt
	s.X += d * math.Cos(rad)
	s.Y += d * math.Sin(rad)
	return s
}

// Mover carries a single mobile's movement through time.
type Mover interface {
	// State returns the current kinematic state.
	State() State
	// Advance moves the mobile forward dt seconds (dt >= 0).
	Advance(dt float64)
}

// Bounded is implemented by Movers whose speed is capped: from the current
// state on, no sequence of Advance calls totalling dt seconds moves the
// mobile more than MaxSpeedMS()*dt metres (straight-line displacement).
// The bound must hold for every future Advance, not just the next one.
type Bounded interface {
	MaxSpeedMS() float64
}

// Model creates Movers. Each mobile gets its own Mover with its own random
// stream, so inserting a user never perturbs another user's trajectory.
type Model interface {
	NewMover(init State, src *rng.Source) Mover
}

// ConstantVelocity moves mobiles in a straight line forever.
type ConstantVelocity struct{}

type constantMover struct{ s State }

// NewMover implements Model.
func (ConstantVelocity) NewMover(init State, _ *rng.Source) Mover {
	return &constantMover{s: init}
}

func (m *constantMover) State() State { return m.s }

// MaxSpeedMS implements Bounded: the speed never changes.
func (m *constantMover) MaxSpeedMS() float64 { return math.Abs(m.s.SpeedMS()) }

func (m *constantMover) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("mobility: negative dt %v", dt))
	}
	m.s = m.s.step(dt)
}

// SmoothTurn is the paper-aligned model: constant speed, heading diffusing
// as a random walk whose standard deviation shrinks with speed.
//
// Over an interval dt the heading receives a Gaussian increment with
// standard deviation
//
//	sigma(dt) = BaseSigmaDeg * sqrt(dt*TurnRate) / (1 + SpeedKmh/SpeedScaleKmh)
//
// so a 4 km/h pedestrian meanders while a 60 km/h vehicle holds its course.
type SmoothTurn struct {
	// TurnRate is the heading-perturbation rate in events per second.
	TurnRate float64
	// BaseSigmaDeg is the per-event heading deviation at speed 0, degrees.
	BaseSigmaDeg float64
	// SpeedScaleKmh controls how quickly higher speed damps turning.
	SpeedScaleKmh float64
}

// DefaultSmoothTurn returns the model parameters used by the experiment
// harness: pedestrians re-orient on the order of every few seconds,
// vehicles are ~5x straighter.
func DefaultSmoothTurn() SmoothTurn {
	return SmoothTurn{TurnRate: 0.2, BaseSigmaDeg: 60, SpeedScaleKmh: 15}
}

type smoothMover struct {
	s     State
	model SmoothTurn
	src   *rng.Source
}

// NewMover implements Model.
func (m SmoothTurn) NewMover(init State, src *rng.Source) Mover {
	if m.TurnRate < 0 || m.BaseSigmaDeg < 0 || m.SpeedScaleKmh <= 0 {
		panic(fmt.Sprintf("mobility: invalid SmoothTurn %+v", m))
	}
	return &smoothMover{s: init, model: m, src: src.Split()}
}

func (m *smoothMover) State() State { return m.s }

// MaxSpeedMS implements Bounded: only the heading diffuses, the speed is
// constant.
func (m *smoothMover) MaxSpeedMS() float64 { return math.Abs(m.s.SpeedMS()) }

func (m *smoothMover) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("mobility: negative dt %v", dt))
	}
	if dt == 0 {
		return
	}
	// Sub-step so long intervals still trace a curved path rather than a
	// single kink. One-second granularity is far below cell-crossing time.
	const maxStep = 1.0
	remaining := dt
	for remaining > 0 {
		step := math.Min(maxStep, remaining)
		remaining -= step
		sigma := m.model.BaseSigmaDeg * math.Sqrt(step*m.model.TurnRate) /
			(1 + m.s.SpeedKmh/m.model.SpeedScaleKmh)
		if sigma > 0 {
			m.s.HeadingDeg = hexgrid.NormalizeAngle(m.s.HeadingDeg + m.src.Normal(0, sigma))
		}
		m.s = m.s.step(step)
	}
}

// GaussMarkov is the classic Gauss-Markov mobility model: both speed and
// heading are AR(1) processes pulled toward their means.
type GaussMarkov struct {
	// Alpha in [0,1] is the memory parameter: 1 = constant velocity,
	// 0 = memoryless.
	Alpha float64
	// MeanSpeedKmh is the asymptotic mean speed.
	MeanSpeedKmh float64
	// SpeedSigmaKmh is the speed innovation deviation.
	SpeedSigmaKmh float64
	// HeadingSigmaDeg is the heading innovation deviation.
	HeadingSigmaDeg float64
	// StepSeconds is the AR(1) update granularity (default 1s).
	StepSeconds float64
}

// gaussMarkovMover does not implement Bounded: its speed is redrawn from a
// normal every step and has no cap.
type gaussMarkovMover struct {
	s           State
	model       GaussMarkov
	src         *rng.Source
	meanHeading float64
}

// NewMover implements Model.
func (m GaussMarkov) NewMover(init State, src *rng.Source) Mover {
	if m.Alpha < 0 || m.Alpha > 1 {
		panic(fmt.Sprintf("mobility: GaussMarkov alpha %v outside [0,1]", m.Alpha))
	}
	if m.StepSeconds <= 0 {
		m.StepSeconds = 1
	}
	return &gaussMarkovMover{s: init, model: m, src: src.Split(), meanHeading: init.HeadingDeg}
}

func (m *gaussMarkovMover) State() State { return m.s }

func (m *gaussMarkovMover) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("mobility: negative dt %v", dt))
	}
	remaining := dt
	for remaining > 0 {
		step := math.Min(m.model.StepSeconds, remaining)
		remaining -= step
		frac := step / m.model.StepSeconds
		a := m.model.Alpha
		root := math.Sqrt(1 - a*a)
		m.s.SpeedKmh = a*m.s.SpeedKmh + (1-a)*m.model.MeanSpeedKmh +
			root*m.model.SpeedSigmaKmh*m.src.Normal(0, 1)*frac
		if m.s.SpeedKmh < 0 {
			m.s.SpeedKmh = 0
		}
		m.s.HeadingDeg = hexgrid.NormalizeAngle(
			a*m.s.HeadingDeg + (1-a)*m.meanHeading +
				root*m.model.HeadingSigmaDeg*m.src.Normal(0, 1)*frac)
		m.s = m.s.step(step)
	}
}

// RandomWaypoint moves mobiles between uniformly chosen waypoints inside a
// disc of FieldRadius metres centred on the origin, pausing between legs.
type RandomWaypoint struct {
	// FieldRadius bounds the waypoint field, metres.
	FieldRadius float64
	// PauseMeanSeconds is the mean exponential pause at each waypoint;
	// 0 disables pausing.
	PauseMeanSeconds float64
}

type waypointMover struct {
	s       State
	model   RandomWaypoint
	src     *rng.Source
	tx, ty  float64
	pausing float64 // remaining pause seconds
}

// NewMover implements Model.
func (m RandomWaypoint) NewMover(init State, src *rng.Source) Mover {
	if m.FieldRadius <= 0 {
		panic(fmt.Sprintf("mobility: RandomWaypoint field radius %v must be positive", m.FieldRadius))
	}
	w := &waypointMover{s: init, model: m, src: src.Split()}
	w.pickWaypoint()
	return w
}

func (w *waypointMover) pickWaypoint() {
	r := w.model.FieldRadius * math.Sqrt(w.src.Float64())
	theta := w.src.Float64() * 2 * math.Pi
	w.tx = r * math.Cos(theta)
	w.ty = r * math.Sin(theta)
	w.s.HeadingDeg = hexgrid.BearingDeg(w.s.X, w.s.Y, w.tx, w.ty)
}

func (w *waypointMover) State() State { return w.s }

// MaxSpeedMS implements Bounded: legs run at the constant speed and pauses
// only shorten the distance covered.
func (w *waypointMover) MaxSpeedMS() float64 { return math.Abs(w.s.SpeedMS()) }

func (w *waypointMover) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("mobility: negative dt %v", dt))
	}
	for dt > 0 {
		if w.pausing > 0 {
			p := math.Min(w.pausing, dt)
			w.pausing -= p
			dt -= p
			continue
		}
		dist := math.Hypot(w.tx-w.s.X, w.ty-w.s.Y)
		speed := w.s.SpeedMS()
		if speed <= 0 {
			return // a parked mobile never reaches its waypoint
		}
		eta := dist / speed
		if eta > dt {
			w.s = w.s.step(dt)
			return
		}
		// Arrive, pause, re-target.
		w.s.X, w.s.Y = w.tx, w.ty
		dt -= eta
		if w.model.PauseMeanSeconds > 0 {
			w.pausing = w.src.Exp(w.model.PauseMeanSeconds)
		}
		w.pickWaypoint()
	}
}
