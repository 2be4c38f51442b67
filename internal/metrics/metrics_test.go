package metrics

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"facsp/internal/traffic"
)

func TestNewValidation(t *testing.T) {
	for _, cells := range []int{0, -1} {
		if _, err := New(cells); err == nil {
			t.Errorf("New(%d) accepted", cells)
		}
	}
	r, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cells() != 3 {
		t.Errorf("Cells() = %d, want 3", r.Cells())
	}
}

func TestClassColumnHelpers(t *testing.T) {
	cases := []struct {
		class                 traffic.Class
		admits, blocks, drops Counter
	}{
		{traffic.Text, AdmitsText, BlocksText, DropsText},
		{traffic.Voice, AdmitsVoice, BlocksVoice, DropsVoice},
		{traffic.Video, AdmitsVideo, BlocksVideo, DropsVideo},
	}
	for _, c := range cases {
		if got := Admits(c.class); got != c.admits {
			t.Errorf("Admits(%v) = %d, want %d", c.class, got, c.admits)
		}
		if got := Blocks(c.class); got != c.blocks {
			t.Errorf("Blocks(%v) = %d, want %d", c.class, got, c.blocks)
		}
		if got := Drops(c.class); got != c.drops {
			t.Errorf("Drops(%v) = %d, want %d", c.class, got, c.drops)
		}
	}
}

func TestCountersAndGauges(t *testing.T) {
	r, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	r.Inc(0, AdmitsVoice)
	r.Inc(0, AdmitsVoice)
	r.Add(1, CtrShed, 7)
	if got := r.CounterValue(0, AdmitsVoice); got != 2 {
		t.Errorf("cell 0 admits voice = %d, want 2", got)
	}
	if got := r.CounterValue(1, AdmitsVoice); got != 0 {
		t.Errorf("cell 1 admits voice = %d, want 0 (row isolation)", got)
	}
	if got := r.CounterValue(1, CtrShed); got != 7 {
		t.Errorf("cell 1 shed = %d, want 7", got)
	}

	r.SetGauge(0, OccupancyBU, 12.5)
	r.SetGauge(1, CapacityBU, 40)
	if got := r.GaugeValue(0, OccupancyBU); got != 12.5 {
		t.Errorf("cell 0 occupancy = %v, want 12.5", got)
	}
	if got := r.GaugeValue(1, OccupancyBU); got != 0 {
		t.Errorf("cell 1 occupancy = %v, want 0", got)
	}
	if got := r.GaugeValue(1, CapacityBU); got != 40 {
		t.Errorf("cell 1 capacity = %v, want 40", got)
	}
}

func TestSnapshotDecouplesAndReusesBuffers(t *testing.T) {
	r, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	r.Inc(0, BlocksVideo)
	r.SetGauge(1, DegradedConns, 3)

	snap := r.Snapshot(nil)
	if got := snap.Counter(0, BlocksVideo); got != 1 {
		t.Errorf("snapshot blocks video = %d, want 1", got)
	}
	if got := snap.Gauge(1, DegradedConns); got != 3 {
		t.Errorf("snapshot degraded = %v, want 3", got)
	}

	// A later bump must not leak into the already-taken sample.
	r.Inc(0, BlocksVideo)
	if got := snap.Counter(0, BlocksVideo); got != 1 {
		t.Errorf("snapshot mutated by later bump: %d", got)
	}

	// Re-sampling into the same snapshot reuses its buffers.
	before := &snap.counters[0]
	snap = r.Snapshot(snap)
	if &snap.counters[0] != before {
		t.Error("re-snapshot reallocated the counter buffer")
	}
	if got := snap.Counter(0, BlocksVideo); got != 2 {
		t.Errorf("re-snapshot blocks video = %d, want 2", got)
	}
	if snap.Cells() != 2 {
		t.Errorf("snapshot cells = %d, want 2", snap.Cells())
	}
}

// TestWritePromGolden pins the text exposition byte-for-byte: format 0.0.4
// headers, cell/class labels, stable family and cell order.
func TestWritePromGolden(t *testing.T) {
	r, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	r.Inc(0, AdmitsVoice)
	r.Inc(0, AdmitsVoice)
	r.Inc(0, BlocksVideo)
	r.Inc(1, DropsText)
	r.Add(1, CtrShed, 4)
	r.SetGauge(0, OccupancyBU, 5)
	r.SetGauge(0, CapacityBU, 40)
	r.SetGauge(1, CapacityBU, 30.5)
	r.SetGauge(1, DegradedConns, 2)

	var b strings.Builder
	if err := WriteProm(&b, r.Snapshot(nil)); err != nil {
		t.Fatal(err)
	}
	want := `# HELP facs_admits_total Accepted admissions (new calls and handoffs) by cell and class.
# TYPE facs_admits_total counter
facs_admits_total{cell="0",class="text"} 0
facs_admits_total{cell="0",class="voice"} 2
facs_admits_total{cell="0",class="video"} 0
facs_admits_total{cell="1",class="text"} 0
facs_admits_total{cell="1",class="voice"} 0
facs_admits_total{cell="1",class="video"} 0
# HELP facs_blocks_total Denied new-call admissions by cell and class.
# TYPE facs_blocks_total counter
facs_blocks_total{cell="0",class="text"} 0
facs_blocks_total{cell="0",class="voice"} 0
facs_blocks_total{cell="0",class="video"} 1
facs_blocks_total{cell="1",class="text"} 0
facs_blocks_total{cell="1",class="voice"} 0
facs_blocks_total{cell="1",class="video"} 0
# HELP facs_drops_total Denied handoff admissions (dropped on-going connections) by cell and class.
# TYPE facs_drops_total counter
facs_drops_total{cell="0",class="text"} 0
facs_drops_total{cell="0",class="voice"} 0
facs_drops_total{cell="0",class="video"} 0
facs_drops_total{cell="1",class="text"} 1
facs_drops_total{cell="1",class="voice"} 0
facs_drops_total{cell="1",class="video"} 0
# HELP facs_shed_total Requests shed by the cell's bounded queue (wire code "overloaded").
# TYPE facs_shed_total counter
facs_shed_total{cell="0"} 0
facs_shed_total{cell="1"} 4
# HELP facs_occupancy_bu Cell occupancy in bandwidth units after the most recent operation.
# TYPE facs_occupancy_bu gauge
facs_occupancy_bu{cell="0"} 5
facs_occupancy_bu{cell="1"} 0
# HELP facs_capacity_bu Cell capacity in bandwidth units.
# TYPE facs_capacity_bu gauge
facs_capacity_bu{cell="0"} 40
facs_capacity_bu{cell="1"} 30.5
# HELP facs_degraded_conns On-going connections currently served below their requested bandwidth.
# TYPE facs_degraded_conns gauge
facs_degraded_conns{cell="0"} 0
facs_degraded_conns{cell="1"} 2
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// The scalar registry is process-global and rejects duplicates, so the test
// family registers once per process even under -count=N reruns.
var (
	testScalarOnce  sync.Once
	testScalarValue atomic.Uint64
)

func TestScalarRegistryAndExposition(t *testing.T) {
	// Use a test-unique name so the registration cannot collide with real
	// families registered by other packages' init functions.
	testScalarOnce.Do(func() {
		RegisterScalar("test_zz_metrics_total", "A test scalar.", testScalarValue.Load)
	})
	testScalarValue.Store(42)

	var b strings.Builder
	if err := WriteScalars(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(),
		"# HELP test_zz_metrics_total A test scalar.\n# TYPE test_zz_metrics_total counter\ntest_zz_metrics_total 42\n") {
		t.Errorf("scalar exposition missing or stale:\n%s", b.String())
	}

	found := false
	for _, f := range Families() {
		if f == "test_zz_metrics_total" {
			found = true
		}
	}
	if !found {
		t.Error("Families() does not list the registered scalar")
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate scalar registration did not panic")
		}
	}()
	RegisterScalar("test_zz_metrics_total", "dup", func() uint64 { return 0 })
}

func TestFamiliesCoverPerCellSeries(t *testing.T) {
	want := []string{
		"facs_admits_total", "facs_blocks_total", "facs_drops_total",
		"facs_shed_total", "facs_occupancy_bu", "facs_capacity_bu",
		"facs_degraded_conns",
	}
	fams := Families()
	for i, w := range want {
		if i >= len(fams) || fams[i] != w {
			t.Fatalf("Families()[%d] = %v, want %q (got %v)", i, fams, w, want)
		}
	}
}
