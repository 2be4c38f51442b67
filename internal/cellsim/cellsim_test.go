package cellsim

import (
	"fmt"
	"testing"

	"facsp/internal/cac"
	"facsp/internal/core"
	"facsp/internal/hexgrid"
	"facsp/internal/traffic"
)

// openAdmitter admits everything and tracks balance per cell, for
// exercising the simulator independent of any admission policy.
type openAdmitter struct {
	admitted map[hexgrid.Coord]float64
	admits   int
	releases int
}

func newOpenAdmitter() *openAdmitter {
	return &openAdmitter{admitted: make(map[hexgrid.Coord]float64)}
}

func (o *openAdmitter) Admit(cell hexgrid.Coord, req cac.Request) cac.Decision {
	o.admitted[cell] += req.Bandwidth
	o.admits++
	return cac.Decision{Accept: true, Score: 1, Outcome: "open"}
}

func (o *openAdmitter) Release(cell hexgrid.Coord, req cac.Request) error {
	if o.admitted[cell] < req.Bandwidth-1e-9 {
		return fmt.Errorf("release %v BU at %v exceeds admitted %v", req.Bandwidth, cell, o.admitted[cell])
	}
	o.admitted[cell] -= req.Bandwidth
	o.releases++
	return nil
}

// denyAdmitter rejects every request.
type denyAdmitter struct{}

func (denyAdmitter) Admit(hexgrid.Coord, cac.Request) cac.Decision {
	return cac.Decision{Accept: false, Score: -1, Outcome: "deny"}
}

func (denyAdmitter) Release(hexgrid.Coord, cac.Request) error {
	return fmt.Errorf("nothing was admitted")
}

func facsAdmitter(t testing.TB) *PerCell {
	t.Helper()
	return NewPerCell(func(hexgrid.Coord) cac.Controller {
		f, err := core.NewFACS(core.DefaultConfig())
		if err != nil {
			t.Fatalf("NewFACS: %v", err)
		}
		return f
	})
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{name: "negative requests", mut: func(c *Config) { c.Requests = -1 }},
		{name: "zero window", mut: func(c *Config) { c.Window = 0 }},
		{name: "zero holding", mut: func(c *Config) { c.HoldingMean = 0 }},
		{name: "negative rings", mut: func(c *Config) { c.Rings = -1 }},
		{name: "zero cell radius", mut: func(c *Config) { c.CellRadius = 0 }},
		{name: "bad mix", mut: func(c *Config) { c.Mix = traffic.Mix{TextP: 2} }},
		{name: "nil speed", mut: func(c *Config) { c.Speed = nil }},
		{name: "nil angle", mut: func(c *Config) { c.Angle = nil }},
		{name: "zero check interval", mut: func(c *Config) { c.CheckInterval = 0 }},
		{name: "rings with topology", mut: func(c *Config) { c.Topology = hexgrid.DiskTopology(hexgrid.Coord{}, 2) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(10, 1)
			tt.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if err := DefaultConfig(10, 1).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestNewRejectsNilAdmitter(t *testing.T) {
	if _, err := New(DefaultConfig(1, 1), nil); err == nil {
		t.Error("nil admitter accepted")
	}
}

func TestOpenAdmitterAcceptsAll(t *testing.T) {
	cfg := DefaultConfig(50, 7)
	adm := newOpenAdmitter()
	s, err := New(cfg, adm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 50 || res.Blocked != 0 {
		t.Errorf("accepted=%d blocked=%d, want 50/0", res.Accepted, res.Blocked)
	}
	if got := res.AcceptedPct(); got != 100 {
		t.Errorf("AcceptedPct = %v, want 100", got)
	}
	// Every admitted BU must be released by the end of the run.
	for cell, bu := range adm.admitted {
		if bu != 0 {
			t.Errorf("cell %v still holds %v BU after run", cell, bu)
		}
	}
}

func TestDenyAdmitterBlocksAll(t *testing.T) {
	s, err := New(DefaultConfig(30, 8), denyAdmitter{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || res.Blocked != 30 {
		t.Errorf("accepted=%d blocked=%d, want 0/30", res.Accepted, res.Blocked)
	}
	if got := res.AcceptedPct(); got != 0 {
		t.Errorf("AcceptedPct = %v, want 0", got)
	}
	if res.CentreUtilization != 0 {
		t.Errorf("utilization = %v, want 0", res.CentreUtilization)
	}
}

func TestCallConservation(t *testing.T) {
	// Every accepted call ends exactly one way: completed, dropped, or
	// left the network.
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		cfg := DefaultConfig(80, seed)
		s, err := New(cfg, facsAdmitter(t))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Completed + res.Dropped + res.LeftNetwork; got != res.Accepted {
			t.Errorf("seed %d: completed(%d)+dropped(%d)+left(%d) = %d != accepted %d",
				seed, res.Completed, res.Dropped, res.LeftNetwork, got, res.Accepted)
		}
		if got := res.Accepted + res.Blocked; got != res.Requests {
			t.Errorf("seed %d: accepted+blocked = %d != requests %d", seed, got, res.Requests)
		}
		if res.HandoffAccepted > res.HandoffAttempts {
			t.Errorf("seed %d: handoff accepted %d > attempts %d", seed, res.HandoffAccepted, res.HandoffAttempts)
		}
	}
}

func TestControllersDrainedAfterRun(t *testing.T) {
	adm := facsAdmitter(t)
	s, err := New(DefaultConfig(60, 11), adm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for cell, ctrl := range adm.all() {
		if got := ctrl.Occupancy(); got != 0 {
			t.Errorf("cell %v occupancy after run = %v, want 0", cell, got)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Result {
		s, err := New(DefaultConfig(40, 99), facsAdmitter(t))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	b := run()
	if a.Accepted != b.Accepted || a.Blocked != b.Blocked || a.Dropped != b.Dropped ||
		a.Completed != b.Completed || a.LeftNetwork != b.LeftNetwork ||
		a.HandoffAttempts != b.HandoffAttempts || a.CentreUtilization != b.CentreUtilization {
		t.Errorf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed uint64) Result {
		s, err := New(DefaultConfig(60, seed), facsAdmitter(t))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(1)
	b := run(2)
	if a.Accepted == b.Accepted && a.CentreUtilization == b.CentreUtilization &&
		a.HandoffAttempts == b.HandoffAttempts {
		t.Error("different seeds produced identical results; seeding is broken")
	}
}

func TestIdenticalRequestStreamAcrossAdmitters(t *testing.T) {
	// The same seed must offer the same per-class request counts to any
	// admitter, so scheme comparisons are paired.
	runWith := func(adm Admitter) Result {
		s, err := New(DefaultConfig(70, 5), adm)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	open := runWith(newOpenAdmitter())
	deny := runWith(denyAdmitter{})
	for _, class := range traffic.Classes() {
		if open.RequestsByClass[class] != deny.RequestsByClass[class] {
			t.Errorf("class %v: open saw %d requests, deny saw %d",
				class, open.RequestsByClass[class], deny.RequestsByClass[class])
		}
	}
}

func TestZeroRequests(t *testing.T) {
	s, err := New(DefaultConfig(0, 1), newOpenAdmitter())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AcceptedPct() != 100 {
		t.Errorf("AcceptedPct with no requests = %v, want 100", res.AcceptedPct())
	}
}

func TestHandoffsHappen(t *testing.T) {
	// Fast users with a long holding time must generate handoffs.
	cfg := DefaultConfig(40, 3)
	cfg.Speed = Fixed(100)
	cfg.HoldingMean = 400
	s, err := New(cfg, newOpenAdmitter())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.HandoffAttempts == 0 {
		t.Error("no handoff attempts despite fast long calls")
	}
	if res.LeftNetwork == 0 {
		t.Error("no mobile ever left the 7-cell cluster despite fast long calls")
	}
}

func TestSlowUsersRarelyHandoff(t *testing.T) {
	cfg := DefaultConfig(40, 3)
	cfg.Speed = Fixed(1) // 1 km/h: ~0.28 m/s, cannot cross a 1 km cell
	cfg.HoldingMean = 60
	s, err := New(cfg, newOpenAdmitter())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.HandoffAttempts > res.Accepted/10 {
		t.Errorf("pedestrians generated %d handoffs for %d calls", res.HandoffAttempts, res.Accepted)
	}
}

func TestUtilizationPositiveUnderLoad(t *testing.T) {
	s, err := New(DefaultConfig(100, 13), facsAdmitter(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CentreUtilization <= 0 {
		t.Errorf("utilization = %v, want positive", res.CentreUtilization)
	}
	if res.CentreUtilization > 40 {
		t.Errorf("utilization = %v exceeds capacity 40", res.CentreUtilization)
	}
}

func TestPerCellLazyConstruction(t *testing.T) {
	built := 0
	p := NewPerCell(func(hexgrid.Coord) cac.Controller {
		built++
		f, err := core.NewFACS(core.DefaultConfig())
		if err != nil {
			t.Fatalf("NewFACS: %v", err)
		}
		return f
	})
	if built != 0 {
		t.Fatalf("factory ran %d times before use", built)
	}
	a := p.Controller(hexgrid.Coord{})
	b := p.Controller(hexgrid.Coord{})
	if a != b {
		t.Error("same cell returned different controllers")
	}
	if built != 1 {
		t.Errorf("factory ran %d times for one cell", built)
	}
	p.Controller(hexgrid.Coord{Q: 1})
	if built != 2 {
		t.Errorf("factory ran %d times for two cells", built)
	}
}

func TestSamplers(t *testing.T) {
	if got := Fixed(42)(nil); got != 42 {
		t.Errorf("Fixed(42) = %v", got)
	}
}

func TestFixedAngleScenario(t *testing.T) {
	// Pinning the angle must still produce a valid run; heading is the
	// bearing to the BS plus the pinned angle.
	cfg := DefaultConfig(30, 21)
	cfg.Angle = Fixed(0)
	s, err := New(cfg, facsAdmitter(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted+res.Blocked != 30 {
		t.Errorf("accounting broken: %+v", res)
	}
}

func BenchmarkRunFACS50(b *testing.B) {
	for i := 0; i < b.N; i++ {
		adm := NewPerCell(func(hexgrid.Coord) cac.Controller {
			f, err := core.NewFACS(core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			return f
		})
		s, err := New(DefaultConfig(50, uint64(i)), adm)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
