package experiment

import (
	"testing"

	"facsp/internal/hexgrid"
	"facsp/internal/metrics"
	"facsp/internal/traffic"
)

// TestRunCurveMetricsSink checks Options.Metrics is forwarded
// into every shard: a sweep accumulates all shards' admission outcomes in
// the one shared registry, with deterministic totals across worker counts.
func TestRunCurveMetricsSink(t *testing.T) {
	topo := hexgrid.DiskTopology(hexgrid.Coord{}, 1)

	sweep := func(workers int) *metrics.Registry {
		reg, err := metrics.New(topo.Slots())
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Loads:        []int{10, 20},
			Replications: 2,
			Workers:      workers,
			Metrics:      reg,
		}
		if _, err := RunCurve("sink", singleCellConfig, FACSFactory(), AcceptedPct, opts); err != nil {
			t.Fatal(err)
		}
		return reg
	}

	reg := sweep(1)
	var total uint64
	for cell := 0; cell < reg.Cells(); cell++ {
		for _, cl := range traffic.Classes() {
			total += reg.CounterValue(cell, metrics.Admits(cl))
			total += reg.CounterValue(cell, metrics.Blocks(cl))
			total += reg.CounterValue(cell, metrics.Drops(cl))
		}
	}
	// singleCellConfig offers load requests per shard to the centre cell
	// only; every one lands in some counter, plus any handoff attempts.
	if want := uint64(2 * (10 + 20)); total < want {
		t.Errorf("sweep recorded %d outcomes, want >= %d offered calls", total, want)
	}

	// Counter totals are bit-identical for any worker count — bumps are
	// atomic adds, and the shard set is the same.
	reg4 := sweep(4)
	snapA, snapB := reg.Snapshot(nil), reg4.Snapshot(nil)
	for cell := 0; cell < reg.Cells(); cell++ {
		for c := metrics.Counter(0); c < metrics.CtrShed; c++ {
			if snapA.Counter(cell, c) != snapB.Counter(cell, c) {
				t.Fatalf("cell %d counter %d: 1 worker %d vs 4 workers %d",
					cell, c, snapA.Counter(cell, c), snapB.Counter(cell, c))
			}
		}
	}
}
