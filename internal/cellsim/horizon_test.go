package cellsim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"facsp/internal/adapt"
	"facsp/internal/cac"
	"facsp/internal/core"
	"facsp/internal/hexgrid"
	"facsp/internal/mobility"
	"facsp/internal/rng"
)

// perStepModel wraps a mobility model so its movers hide mobility.Bounded:
// the engines then check every CheckInterval, which is the reference the
// safe-horizon schedule must reproduce bit for bit.
type perStepModel struct{ mobility.Model }

func (m perStepModel) NewMover(init mobility.State, src *rng.Source) mobility.Mover {
	return perStepMover{m.Model.NewMover(init, src)}
}

// perStepMover exposes only the Mover methods of the wrapped mover.
type perStepMover struct{ mobility.Mover }

// horizonModels are the repository's mobility models, bounded and not.
func horizonModels() map[string]mobility.Model {
	return map[string]mobility.Model{
		"smooth-turn":     mobility.DefaultSmoothTurn(),
		"constant":        mobility.ConstantVelocity{},
		"gauss-markov":    mobility.GaussMarkov{Alpha: 0.85, MeanSpeedKmh: 50, SpeedSigmaKmh: 10, HeadingSigmaDeg: 30},
		"random-waypoint": mobility.RandomWaypoint{FieldRadius: 2500, PauseMeanSeconds: 30},
	}
}

// horizonSchemes are FACS-P (exact inference) and an adaptive scheme,
// whose mid-call reallocations exercise the bandwidth observer. Both run
// at half the paper's capacity so small runs still drop handoffs.
func horizonSchemes() map[string]func(testing.TB) Admitter {
	return map[string]func(testing.TB) Admitter{
		"facsp": func(t testing.TB) Admitter {
			return NewPerCell(func(hexgrid.Coord) cac.Controller {
				cfg := core.DefaultPConfig()
				cfg.Capacity = 20
				c, err := core.NewFACSP(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return c
			})
		},
		"adapt": func(t testing.TB) Admitter {
			return NewPerCell(func(hexgrid.Coord) cac.Controller {
				cfg := adapt.DefaultConfig()
				cfg.Capacity = 20
				c, err := adapt.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return c
			})
		},
	}
}

// resultFields renders every Result field as name=value in declaration
// order, floats by their bits, so two renderings are equal exactly when
// the Results are bit-identical.
func resultFields(r Result) []string {
	v := reflect.ValueOf(r)
	out := make([]string, v.NumField())
	for i := range out {
		f := v.Field(i)
		val := fmt.Sprint(f.Interface()) // fmt prints maps in key order
		if f.Kind() == reflect.Float64 {
			val = fmt.Sprintf("%#016x", math.Float64bits(f.Float()))
		}
		out[i] = v.Type().Field(i).Name + "=" + val
	}
	return out
}

// resultDiff names the first field where two Results differ, comparing
// floats by their bits; "" means bit-identical.
func resultDiff(a, b Result) string {
	fa, fb := resultFields(a), resultFields(b)
	for i := range fa {
		if fa[i] != fb[i] {
			return fmt.Sprintf("%s (per-step) vs %s (horizon)", fa[i], fb[i])
		}
	}
	return ""
}

// TestSafeHorizonMatchesPerStepChecks is the equivalence oracle of the
// safe-horizon schedule: for both engines, every mobility model, FACS-P
// and an adaptive scheme, and several seeds, a run whose movers hide their
// speed bound (one check per interval) and the normal run agree on every
// Result field bit for bit — the sharded engine at 1, 2 and 4 workers.
func TestSafeHorizonMatchesPerStepChecks(t *testing.T) {
	var exercised Result
	for model, m := range horizonModels() {
		for scheme, newAdm := range horizonSchemes() {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("run/%s/%s/seed%d", model, scheme, seed), func(t *testing.T) {
					cfg := DefaultConfig(30, seed)
					cfg.Window = 200
					cfg.HoldingMean = 60
					var res [2]Result
					for i, mob := range []mobility.Model{perStepModel{m}, m} {
						cfg.Mobility = mob
						s, err := New(cfg, newAdm(t))
						if err != nil {
							t.Fatal(err)
						}
						if res[i], err = s.Run(); err != nil {
							t.Fatal(err)
						}
					}
					if d := resultDiff(res[0], res[1]); d != "" {
						t.Errorf("single-heap engine diverged: %s", d)
					}
					exercised.HandoffAccepted += res[1].HandoffAccepted
					exercised.Dropped += res[1].Dropped
					exercised.LeftNetwork += res[1].LeftNetwork
				})
				for _, workers := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("sharded/%s/%s/seed%d/w%d", model, scheme, seed, workers), func(t *testing.T) {
						cfg := cityConfig(seed)
						cfg.Topology = hexgrid.DiskTopology(hexgrid.Coord{}, 2) // 19 cells
						cfg.Requests = 10
						cfg.NeighborRequests = 10
						cfg.HoldingMean = 40
						opts := ShardOptions{Groups: 4, Workers: workers}
						var res [2]Result
						for i, mob := range []mobility.Model{perStepModel{m}, m} {
							cfg.Mobility = mob
							var err error
							if res[i], err = RunSharded(cfg, newAdm(t), opts); err != nil {
								t.Fatal(err)
							}
						}
						if d := resultDiff(res[0], res[1]); d != "" {
							t.Errorf("sharded engine diverged: %s", d)
						}
						exercised.HandoffAccepted += res[1].HandoffAccepted
						exercised.Dropped += res[1].Dropped
						exercised.LeftNetwork += res[1].LeftNetwork
					})
				}
			}
		}
	}
	if exercised.HandoffAccepted == 0 || exercised.Dropped == 0 || exercised.LeftNetwork == 0 {
		t.Errorf("oracle exercises too little: handoffs=%d dropped=%d left=%d",
			exercised.HandoffAccepted, exercised.Dropped, exercised.LeftNetwork)
	}
}

// TestSafeHorizonMatchesPerStepOffGrid repeats the oracle at a check
// interval that is not a binary fraction, where the event times and the
// sharded engine's barrier grid are not exact in floating point.
func TestSafeHorizonMatchesPerStepOffGrid(t *testing.T) {
	m := mobility.DefaultSmoothTurn()
	newAdm := horizonSchemes()["adapt"]
	cfg := cityConfig(5)
	cfg.Topology = hexgrid.DiskTopology(hexgrid.Coord{}, 3)
	cfg.Requests = 6
	cfg.NeighborRequests = 6
	cfg.CheckInterval = 0.7
	var single, sharded [2]Result
	for i, mob := range []mobility.Model{perStepModel{m}, m} {
		cfg.Mobility = mob
		s, err := New(cfg, newAdm(t))
		if err != nil {
			t.Fatal(err)
		}
		if single[i], err = s.Run(); err != nil {
			t.Fatal(err)
		}
		if sharded[i], err = RunSharded(cfg, newAdm(t), ShardOptions{Groups: 4, Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if d := resultDiff(single[0], single[1]); d != "" {
		t.Errorf("single-heap engine diverged: %s", d)
	}
	if d := resultDiff(sharded[0], sharded[1]); d != "" {
		t.Errorf("sharded engine diverged: %s", d)
	}
}

// TestNextCheckStaysInCell is the safety property behind the oracle: for
// straight-line movers anywhere in a cell, at any speed up to 120 km/h and
// heading outward, the steps-1 positions a horizon skips over are all on
// the InCell fast path, and deep-inside slow movers do get long horizons.
func TestNextCheckStaysInCell(t *testing.T) {
	layout := hexgrid.NewLayout(1000)
	src := rng.New(3)
	long := 0
	for i := 0; i < 20000; i++ {
		cell := hexgrid.Coord{Q: src.Intn(41) - 20, R: src.Intn(41) - 20}
		cx, cy := layout.Center(cell)
		w := layout.Inradius()
		r := w * math.Sqrt(src.Float64())
		theta := src.Uniform(-math.Pi, math.Pi)
		x, y := cx+r*math.Cos(theta), cy+r*math.Sin(theta)
		// Outward: within 90 degrees of the direction away from the centre.
		heading := theta*180/math.Pi + src.Uniform(-90, 90)
		ci := []float64{1, 0.7, 2.5}[src.Intn(3)]
		c := &call{
			cell:  cell,
			endAt: 1e6,
			mover: mobility.ConstantVelocity{}.NewMover(mobility.State{
				X: x, Y: y, SpeedKmh: src.Uniform(0, 120), HeadingDeg: heading,
			}, nil),
		}
		_, steps := nextCheck(layout, c, ci, 0)
		if steps > 1 {
			long++
		}
		for k := 1; k < steps; k++ {
			c.mover.Advance(ci)
			if st := c.mover.State(); !layout.InCell(cell, st.X, st.Y) {
				t.Fatalf("cell %v, ci %v: position %d of a %d-step horizon (%v, %v) leaves the inscribed circle",
					cell, ci, k, steps, st.X, st.Y)
			}
		}
	}
	if long < 1000 {
		t.Errorf("only %d of 20000 horizons cover more than one interval", long)
	}
}

// TestNextCheckCapsAtEnd pins the end-of-call cap: a horizon stops at the
// first interval tick at or after the call's end, built by repeated
// addition exactly as chained per-interval checks are.
func TestNextCheckCapsAtEnd(t *testing.T) {
	layout := hexgrid.NewLayout(1000)
	for _, tc := range []struct {
		name     string
		speedKmh float64
		ci, now  float64
		endAt    float64
	}{
		{"parked", 0, 1, 10, 15.5},
		{"parked-on-tick", 0, 1, 10, 16},
		{"parked-off-grid", 0, 0.7, 3.3, 9.1},
		{"slow", 4, 1, 0, 30.25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &call{
				cell:  hexgrid.Coord{Q: 2, R: -1},
				endAt: tc.endAt,
			}
			cx, cy := layout.Center(c.cell)
			c.mover = mobility.ConstantVelocity{}.NewMover(mobility.State{
				X: cx, Y: cy, SpeedKmh: tc.speedKmh,
			}, nil)
			at, steps := nextCheck(layout, c, tc.ci, tc.now)
			want, wantSteps := tc.now+tc.ci, 1
			for want < tc.endAt {
				want += tc.ci
				wantSteps++
			}
			if math.Float64bits(at) != math.Float64bits(want) || steps != wantSteps {
				t.Errorf("nextCheck = (%v, %d), want the first tick at or after the end (%v, %d)",
					at, steps, want, wantSteps)
			}
		})
	}
}

// TestNextCheckUnboundedIsOneStep: a mover without a speed bound is
// checked every interval.
func TestNextCheckUnboundedIsOneStep(t *testing.T) {
	layout := hexgrid.NewLayout(1000)
	c := &call{endAt: 1e6, mover: perStepMover{mobility.ConstantVelocity{}.NewMover(mobility.State{}, nil)}}
	if at, steps := nextCheck(layout, c, 1, 5); at != 6 || steps != 1 {
		t.Errorf("nextCheck = (%v, %d), want (6, 1)", at, steps)
	}
}
