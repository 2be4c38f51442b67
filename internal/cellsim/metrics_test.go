package cellsim

import (
	"reflect"
	"testing"

	"facsp/internal/hexgrid"
	"facsp/internal/metrics"
	"facsp/internal/traffic"
)

func sinkRegistry(t *testing.T, cfg Config) *metrics.Registry {
	t.Helper()
	topo := hexgrid.DiskTopology(hexgrid.Coord{}, cfg.Rings)
	reg, err := metrics.New(topo.Slots())
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// counterTotals sums a registry's admits, blocks and drops across every
// cell and class.
func counterTotals(reg *metrics.Registry) (admits, blocks, drops uint64) {
	for cell := 0; cell < reg.Cells(); cell++ {
		for _, cl := range traffic.Classes() {
			admits += reg.CounterValue(cell, metrics.Admits(cl))
			blocks += reg.CounterValue(cell, metrics.Blocks(cl))
			drops += reg.CounterValue(cell, metrics.Drops(cl))
		}
	}
	return
}

// TestMetricsSinkStaticIdentity pins the counter semantics against the
// run's own accounting on the static (no handoff) engine, where the
// network-wide totals are exact: every arrival is either an admit or a
// block, and nothing can drop.
func TestMetricsSinkStaticIdentity(t *testing.T) {
	cfg := DefaultConfig(200, 3)
	cfg.Static = true
	cfg.Metrics = sinkRegistry(t, cfg)

	s, err := New(cfg, newOpenAdmitter())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	admits, blocks, drops := counterTotals(cfg.Metrics)
	if int(admits) != res.NetworkRequests {
		t.Errorf("admits = %d, want NetworkRequests %d", admits, res.NetworkRequests)
	}
	if blocks != 0 || drops != 0 {
		t.Errorf("blocks/drops = %d/%d, want 0/0 under an open admitter", blocks, drops)
	}

	deny := sinkRegistry(t, cfg)
	cfg.Metrics = deny
	s, err = New(cfg, denyAdmitter{})
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run()
	if err != nil {
		t.Fatal(err)
	}
	admits, blocks, drops = counterTotals(deny)
	if admits != 0 || drops != 0 {
		t.Errorf("admits/drops = %d/%d, want 0/0 under a deny admitter", admits, drops)
	}
	if int(blocks) != res.NetworkRequests {
		t.Errorf("blocks = %d, want NetworkRequests %d", blocks, res.NetworkRequests)
	}
}

// TestMetricsSinkCountsEveryAdmitCall checks, on the mobile engine, that
// the counter plane sees exactly the admission attempts the admitter saw:
// total bumps == Admit calls.
func TestMetricsSinkCountsEveryAdmitCall(t *testing.T) {
	cfg := DefaultConfig(100, 11)
	cfg.Metrics = sinkRegistry(t, cfg)

	adm := newOpenAdmitter()
	s, err := New(cfg, adm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	admits, blocks, drops := counterTotals(cfg.Metrics)
	if got, want := admits+blocks+drops, uint64(adm.admits); got != want {
		t.Errorf("total counter bumps = %d, want the admitter's %d Admit calls", got, want)
	}
	if int(admits) < res.NetworkAccepted {
		t.Errorf("admits = %d < NetworkAccepted %d", admits, res.NetworkAccepted)
	}
}

// TestMetricsSinkDeterministic runs the same seed twice into fresh
// registries and requires bit-identical counter planes — the metrics tap
// must not perturb or be perturbed by the run's RNG.
func TestMetricsSinkDeterministic(t *testing.T) {
	run := func() (*metrics.Registry, Result) {
		cfg := DefaultConfig(150, 7)
		cfg.Metrics = sinkRegistry(t, cfg)
		s, err := New(cfg, facsAdmitter(t))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Metrics, res
	}
	regA, resA := run()
	regB, resB := run()
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("results diverged: %+v vs %+v", resA, resB)
	}
	snapA, snapB := regA.Snapshot(nil), regB.Snapshot(nil)
	for cell := 0; cell < regA.Cells(); cell++ {
		for _, cl := range traffic.Classes() {
			for _, c := range []metrics.Counter{metrics.Admits(cl), metrics.Blocks(cl), metrics.Drops(cl)} {
				if snapA.Counter(cell, c) != snapB.Counter(cell, c) {
					t.Fatalf("cell %d counter %d diverged: %d vs %d",
						cell, c, snapA.Counter(cell, c), snapB.Counter(cell, c))
				}
			}
		}
	}
}

// TestMetricsSinkDoesNotChangeRun requires the instrumented run to produce
// the exact Result of an uninstrumented one.
func TestMetricsSinkDoesNotChangeRun(t *testing.T) {
	run := func(instrument bool) Result {
		cfg := DefaultConfig(150, 7)
		if instrument {
			cfg.Metrics = sinkRegistry(t, cfg)
		}
		s, err := New(cfg, facsAdmitter(t))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if plain, tapped := run(false), run(true); !reflect.DeepEqual(plain, tapped) {
		t.Errorf("metrics tap changed the run:\nplain  %+v\ntapped %+v", plain, tapped)
	}
}

func TestMetricsSinkValidation(t *testing.T) {
	cfg := DefaultConfig(10, 1) // Rings 1 -> 7 slots
	small, err := metrics.New(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = small
	if _, err := New(cfg, newOpenAdmitter()); err == nil {
		t.Error("undersized metrics registry accepted")
	}
}
