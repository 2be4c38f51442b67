package mobility

import (
	"math"
	"testing"
	"testing/quick"

	"facsp/internal/hexgrid"
	"facsp/internal/rng"
)

func TestStateSpeedMS(t *testing.T) {
	tests := []struct{ kmh, ms float64 }{
		{kmh: 0, ms: 0},
		{kmh: 3.6, ms: 1},
		{kmh: 36, ms: 10},
		{kmh: 120, ms: 120.0 / 3.6},
	}
	for _, tt := range tests {
		s := State{SpeedKmh: tt.kmh}
		if got := s.SpeedMS(); math.Abs(got-tt.ms) > 1e-12 {
			t.Errorf("SpeedMS(%v km/h) = %v, want %v", tt.kmh, got, tt.ms)
		}
	}
}

func TestConstantVelocityStraightLine(t *testing.T) {
	m := ConstantVelocity{}.NewMover(State{SpeedKmh: 36, HeadingDeg: 0}, rng.New(1))
	m.Advance(10) // 10 m/s * 10 s = 100 m east
	s := m.State()
	if math.Abs(s.X-100) > 1e-9 || math.Abs(s.Y) > 1e-9 {
		t.Errorf("position = (%v, %v), want (100, 0)", s.X, s.Y)
	}
	if s.HeadingDeg != 0 {
		t.Errorf("heading changed to %v", s.HeadingDeg)
	}
}

func TestConstantVelocityHeading(t *testing.T) {
	tests := []struct {
		heading float64
		wantX   float64
		wantY   float64
	}{
		{heading: 0, wantX: 10, wantY: 0},
		{heading: 90, wantX: 0, wantY: 10},
		{heading: 180, wantX: -10, wantY: 0},
		{heading: -90, wantX: 0, wantY: -10},
		{heading: 45, wantX: 10 / math.Sqrt2, wantY: 10 / math.Sqrt2},
	}
	for _, tt := range tests {
		m := ConstantVelocity{}.NewMover(State{SpeedKmh: 36, HeadingDeg: tt.heading}, rng.New(1))
		m.Advance(1)
		s := m.State()
		if math.Abs(s.X-tt.wantX) > 1e-9 || math.Abs(s.Y-tt.wantY) > 1e-9 {
			t.Errorf("heading %v: position (%v, %v), want (%v, %v)", tt.heading, s.X, s.Y, tt.wantX, tt.wantY)
		}
	}
}

func TestSmoothTurnSpeedDependence(t *testing.T) {
	// The paper's Fig. 8 mechanism: over the same interval, slow users
	// deviate from their initial heading far more than fast users.
	model := DefaultSmoothTurn()
	deviation := func(speed float64) float64 {
		const trials = 200
		sum := 0.0
		src := rng.New(99)
		for i := 0; i < trials; i++ {
			m := model.NewMover(State{SpeedKmh: speed}, src)
			m.Advance(60)
			d := hexgrid.NormalizeAngle(m.State().HeadingDeg)
			sum += math.Abs(d)
		}
		return sum / trials
	}
	slow := deviation(4)
	fast := deviation(60)
	if fast >= slow {
		t.Errorf("mean |heading drift| at 60 km/h (%v) not below 4 km/h (%v)", fast, slow)
	}
	if slow < 20 {
		t.Errorf("pedestrian drift %v deg over 60s seems too straight", slow)
	}
}

func TestSmoothTurnPreservesSpeed(t *testing.T) {
	m := DefaultSmoothTurn().NewMover(State{SpeedKmh: 50, HeadingDeg: 30}, rng.New(3))
	m.Advance(120)
	if got := m.State().SpeedKmh; got != 50 {
		t.Errorf("speed changed to %v", got)
	}
}

func TestSmoothTurnDistanceBounded(t *testing.T) {
	// Path length is speed*time regardless of turning, so displacement
	// must never exceed it.
	m := DefaultSmoothTurn().NewMover(State{SpeedKmh: 36}, rng.New(4))
	m.Advance(100) // max displacement 10 m/s * 100 s = 1000 m
	s := m.State()
	if d := math.Hypot(s.X, s.Y); d > 1000+1e-6 {
		t.Errorf("displacement %v exceeds path length 1000", d)
	}
}

func TestSmoothTurnZeroDt(t *testing.T) {
	m := DefaultSmoothTurn().NewMover(State{SpeedKmh: 36, HeadingDeg: 10}, rng.New(5))
	before := m.State()
	m.Advance(0)
	if m.State() != before {
		t.Error("Advance(0) changed state")
	}
}

func TestSmoothTurnDeterministicPerSeed(t *testing.T) {
	mk := func() State {
		m := DefaultSmoothTurn().NewMover(State{SpeedKmh: 20}, rng.New(77))
		m.Advance(30)
		return m.State()
	}
	if mk() != mk() {
		t.Error("same seed produced different trajectories")
	}
}

func TestSmoothTurnPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid SmoothTurn accepted")
		}
	}()
	SmoothTurn{TurnRate: -1, BaseSigmaDeg: 10, SpeedScaleKmh: 10}.NewMover(State{}, rng.New(1))
}

func TestNegativeDtPanics(t *testing.T) {
	movers := []Mover{
		ConstantVelocity{}.NewMover(State{}, rng.New(1)),
		DefaultSmoothTurn().NewMover(State{}, rng.New(1)),
		GaussMarkov{Alpha: 0.8, MeanSpeedKmh: 30, SpeedSigmaKmh: 5, HeadingSigmaDeg: 20}.NewMover(State{}, rng.New(1)),
		RandomWaypoint{FieldRadius: 100}.NewMover(State{SpeedKmh: 10}, rng.New(1)),
	}
	for i, m := range movers {
		m := m
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mover %d: negative dt did not panic", i)
				}
			}()
			m.Advance(-1)
		}()
	}
}

func TestGaussMarkovPullsTowardMeanSpeed(t *testing.T) {
	model := GaussMarkov{Alpha: 0.7, MeanSpeedKmh: 50, SpeedSigmaKmh: 3, HeadingSigmaDeg: 5}
	m := model.NewMover(State{SpeedKmh: 0}, rng.New(6))
	m.Advance(300)
	got := m.State().SpeedKmh
	if math.Abs(got-50) > 25 {
		t.Errorf("speed after long run = %v, want near mean 50", got)
	}
}

func TestGaussMarkovAlphaOneIsConstant(t *testing.T) {
	model := GaussMarkov{Alpha: 1, MeanSpeedKmh: 99, SpeedSigmaKmh: 50, HeadingSigmaDeg: 180}
	m := model.NewMover(State{SpeedKmh: 30, HeadingDeg: 42}, rng.New(7))
	m.Advance(60)
	s := m.State()
	if s.SpeedKmh != 30 || s.HeadingDeg != 42 {
		t.Errorf("alpha=1 mover changed kinematics: %+v", s)
	}
}

func TestGaussMarkovSpeedNeverNegative(t *testing.T) {
	model := GaussMarkov{Alpha: 0.2, MeanSpeedKmh: 1, SpeedSigmaKmh: 30, HeadingSigmaDeg: 5}
	m := model.NewMover(State{}, rng.New(8))
	for i := 0; i < 200; i++ {
		m.Advance(1)
		if got := m.State().SpeedKmh; got < 0 {
			t.Fatalf("negative speed %v", got)
		}
	}
}

func TestGaussMarkovPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("alpha > 1 accepted")
		}
	}()
	GaussMarkov{Alpha: 1.5}.NewMover(State{}, rng.New(1))
}

func TestRandomWaypointStaysInField(t *testing.T) {
	model := RandomWaypoint{FieldRadius: 500}
	m := model.NewMover(State{SpeedKmh: 30}, rng.New(9))
	for i := 0; i < 500; i++ {
		m.Advance(5)
		s := m.State()
		if d := math.Hypot(s.X, s.Y); d > 500+1e-6 {
			t.Fatalf("mobile left the field: %v m from origin", d)
		}
	}
}

func TestRandomWaypointParkedMobile(t *testing.T) {
	model := RandomWaypoint{FieldRadius: 100}
	m := model.NewMover(State{SpeedKmh: 0}, rng.New(10))
	m.Advance(100)
	s := m.State()
	if s.X != 0 || s.Y != 0 {
		t.Errorf("parked mobile moved to (%v, %v)", s.X, s.Y)
	}
}

func TestRandomWaypointPauses(t *testing.T) {
	// With a huge pause mean the mobile should spend most time paused, so
	// total displacement over a modest horizon is small.
	model := RandomWaypoint{FieldRadius: 10, PauseMeanSeconds: 1e6}
	m := model.NewMover(State{SpeedKmh: 100}, rng.New(11))
	m.Advance(1000)
	// It reaches the first waypoint (<= 10 m away... radius 10 field) and
	// then pauses ~forever.
	s := m.State()
	if d := math.Hypot(s.X, s.Y); d > 10+1e-6 {
		t.Errorf("mobile travelled %v m despite pausing", d)
	}
}

func TestRandomWaypointPanicsOnBadRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero radius accepted")
		}
	}()
	RandomWaypoint{}.NewMover(State{}, rng.New(1))
}

// Property: every model conserves path length (displacement <= speed*dt)
// for constant-speed models.
func TestQuickDisplacementBounded(t *testing.T) {
	f := func(seed uint64, speedRaw, dtRaw uint16) bool {
		speed := float64(speedRaw%120) + 1
		dt := float64(dtRaw%300) + 1
		src := rng.New(seed)
		for _, model := range []Model{ConstantVelocity{}, DefaultSmoothTurn()} {
			m := model.NewMover(State{SpeedKmh: speed}, src)
			m.Advance(dt)
			s := m.State()
			if math.Hypot(s.X, s.Y) > speed/3.6*dt+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: heading stays normalized in (-180, 180] for SmoothTurn.
func TestQuickHeadingNormalized(t *testing.T) {
	f := func(seed uint64, h int16) bool {
		init := State{SpeedKmh: 10, HeadingDeg: hexgrid.NormalizeAngle(float64(h))}
		m := DefaultSmoothTurn().NewMover(init, rng.New(seed))
		for i := 0; i < 16; i++ {
			m.Advance(2)
			hd := m.State().HeadingDeg
			if hd <= -180 || hd > 180 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBoundedContract checks the Bounded promise the simulator's
// safe-horizon checks rely on: over 10k random Advance calls per bounded
// model, no advance — and no run of advances — moves the mobile further
// than MaxSpeedMS times the elapsed time. The tolerance is a relative
// 1e-12 of the quantities involved, covering position rounding only.
// GaussMarkov must not claim a bound.
func TestBoundedContract(t *testing.T) {
	models := map[string]Model{
		"constant":        ConstantVelocity{},
		"smooth-turn":     DefaultSmoothTurn(),
		"random-waypoint": RandomWaypoint{FieldRadius: 3000, PauseMeanSeconds: 5},
	}
	const eps = 1e-12
	within := func(dist, bound float64, s0, s1 State) bool {
		scale := bound + math.Abs(s0.X) + math.Abs(s0.Y) + math.Abs(s1.X) + math.Abs(s1.Y)
		return dist <= bound+eps*scale
	}
	for name, model := range models {
		t.Run(name, func(t *testing.T) {
			src := rng.New(11)
			var m Mover
			var b Bounded
			var start State
			var elapsed float64
			for i := 0; i < 10000; i++ {
				if i%100 == 0 {
					start = State{
						X: src.Uniform(-2000, 2000), Y: src.Uniform(-2000, 2000),
						SpeedKmh: src.Uniform(0, 120), HeadingDeg: src.Uniform(-180, 180),
					}
					m = model.NewMover(start, src)
					var ok bool
					if b, ok = m.(Bounded); !ok {
						t.Fatalf("%T does not implement Bounded", m)
					}
					elapsed = 0
				}
				dt := src.Uniform(0, 5)
				vmax := b.MaxSpeedMS()
				s0 := m.State()
				m.Advance(dt)
				s1 := m.State()
				elapsed += dt
				if d := math.Hypot(s1.X-s0.X, s1.Y-s0.Y); !within(d, vmax*dt, s0, s1) {
					t.Fatalf("advance %d: moved %v m in %v s, bound %v m/s", i, d, dt, vmax)
				}
				if d := math.Hypot(s1.X-start.X, s1.Y-start.Y); !within(d, vmax*elapsed, start, s1) {
					t.Fatalf("advance %d: moved %v m in %v s since creation, bound %v m/s", i, d, elapsed, vmax)
				}
			}
		})
	}
	// GaussMarkov redraws its speed every step and makes no promise.
	gm := GaussMarkov{Alpha: 0.85, MeanSpeedKmh: 50, SpeedSigmaKmh: 10}.NewMover(State{SpeedKmh: 50}, rng.New(1))
	if _, ok := gm.(Bounded); ok {
		t.Error("GaussMarkov mover implements Bounded")
	}
}
