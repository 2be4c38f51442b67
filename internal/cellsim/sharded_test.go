package cellsim

import (
	"reflect"
	"testing"

	"facsp/internal/baseline"
	"facsp/internal/cac"
	"facsp/internal/hexgrid"
	"facsp/internal/metrics"
	"facsp/internal/traffic"
)

// cityConfig is a ~1000-cell homogeneous set-up sized so that the
// determinism matrix (several worker and group counts, under -race) stays
// cheap: a short window and holding time, with capacity tight enough to
// exercise blocking, handoff drops and leave-network exits.
func cityConfig(seed uint64) Config {
	cfg := DefaultConfig(2, seed)
	cfg.NeighborRequests = 2
	cfg.Window = 120
	cfg.HoldingMean = 90
	cfg.Rings = 0
	cfg.Topology = hexgrid.DiskTopology(hexgrid.Coord{}, 18) // 1027 cells
	return cfg
}

func tightGuardAdmitter(t *testing.T) *PerCell {
	t.Helper()
	return NewPerCell(func(hexgrid.Coord) cac.Controller {
		c, err := baseline.NewGuardChannel(12, 3)
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

// TestRunShardedWorkerDeterminism is the city-scale acceptance check:
// a 1000+-cell run must produce bit-identical metrics for 1, 4 and 8
// workers. Every comparison is exact — including the float bandwidth
// integrals and the centre-utilization mean — because the engine promises
// canonical ordering, not mere statistical agreement.
func TestRunShardedWorkerDeterminism(t *testing.T) {
	cfg := cityConfig(42)
	var want Result
	for i, workers := range []int{1, 4, 8} {
		res, err := RunSharded(cfg, tightGuardAdmitter(t), ShardOptions{Groups: 16, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			want = res
			if res.Requests != 1027*2 {
				t.Fatalf("Requests = %d, want %d", res.Requests, 1027*2)
			}
			if res.Blocked == 0 || res.Dropped == 0 || res.LeftNetwork == 0 {
				t.Fatalf("run exercises too little: blocked=%d dropped=%d left=%d",
					res.Blocked, res.Dropped, res.LeftNetwork)
			}
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("workers=%d diverged:\n got %+v\nwant %+v", workers, res, want)
		}
	}
}

// TestRunShardedGroupCountInvariance pins the stronger contract: the
// grouping is an execution detail, so different group counts replay the
// same realisation bit for bit.
func TestRunShardedGroupCountInvariance(t *testing.T) {
	cfg := cityConfig(7)
	cfg.Topology = hexgrid.DiskTopology(hexgrid.Coord{}, 5) // 91 cells
	cfg.Requests = 6
	cfg.NeighborRequests = 6
	var want Result
	for i, groups := range []int{1, 7, 91} {
		res, err := RunSharded(cfg, tightGuardAdmitter(t), ShardOptions{Groups: groups, Workers: 1})
		if err != nil {
			t.Fatalf("groups=%d: %v", groups, err)
		}
		if i == 0 {
			want = res
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("groups=%d diverged:\n got %+v\nwant %+v", groups, res, want)
		}
	}
}

// TestRunShardedMultiCluster runs a topology of two disjoint clusters with
// a dead corridor between them: calls can only leave the network, never
// tunnel across, and accounting must balance.
func TestRunShardedMultiCluster(t *testing.T) {
	topo, err := hexgrid.NewBuilder().
		AddDisk(hexgrid.Coord{}, 3).
		AddDisk(hexgrid.Coord{Q: 20, R: 0}, 3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cityConfig(11)
	cfg.Topology = topo
	cfg.Requests = 10
	cfg.NeighborRequests = 10

	res, err := RunSharded(cfg, tightGuardAdmitter(t), ShardOptions{Groups: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != topo.Cells()*10 {
		t.Errorf("Requests = %d, want %d", res.Requests, topo.Cells()*10)
	}
	if res.Accepted != res.Completed+res.Dropped+res.LeftNetwork {
		t.Errorf("accepted %d != completed %d + dropped %d + left %d",
			res.Accepted, res.Completed, res.Dropped, res.LeftNetwork)
	}
	if res.Accepted+res.Blocked != res.Requests {
		t.Errorf("accepted %d + blocked %d != requests %d", res.Accepted, res.Blocked, res.Requests)
	}
}

// TestRunShardedAdaptive covers the adaptive-observer path under sharding:
// mid-call reallocations must accrue into the bandwidth integrals and stay
// deterministic across worker counts.
func TestRunShardedAdaptive(t *testing.T) {
	cfg := cityConfig(13)
	cfg.Topology = hexgrid.DiskTopology(hexgrid.Coord{}, 4) // 61 cells
	cfg.Requests = 25
	cfg.NeighborRequests = 25

	newAdm := func() Admitter { return adaptAdmitterT(t) }
	a, err := RunSharded(cfg, newAdm(), ShardOptions{Groups: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSharded(cfg, newAdm(), ShardOptions{Groups: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("adaptive sharded run diverged across workers:\n got %+v\nwant %+v", b, a)
	}
	if a.BandwidthRequested <= 0 {
		t.Error("no requested-bandwidth integral accumulated")
	}
	if a.BandwidthGranted > a.BandwidthRequested+1e-6 {
		t.Errorf("granted integral %v exceeds requested %v", a.BandwidthGranted, a.BandwidthRequested)
	}
	if ratio := a.BandwidthRatio(); ratio >= 1 {
		t.Errorf("BandwidthRatio = %v; loaded adaptive run should degrade below 1", ratio)
	}
}

// TestRunShardedRejectsNetworkLevelAdmitter pins the safety rule: an
// admitter without per-cell compiled state (shared mutable network state,
// like scc.Controller) cannot run sharded.
func TestRunShardedRejectsNetworkLevelAdmitter(t *testing.T) {
	cfg := DefaultConfig(5, 1)
	if _, err := RunSharded(cfg, newOpenAdmitter(), ShardOptions{}); err == nil {
		t.Error("admitter without TopologyCompiler accepted")
	}
}

// TestRunShardedMetricsSink checks the sharded engine's per-cell counter
// export: groups bump their own cells' counters from parallel workers, so
// the counter plane must be identical for every worker count, sum to the
// Result's own accounting (a sharded Result counts every cell), and leave
// the Result bit-identical to an uninstrumented run.
func TestRunShardedMetricsSink(t *testing.T) {
	cfg := cityConfig(17)
	cfg.Topology = hexgrid.DiskTopology(hexgrid.Coord{}, 5) // 91 cells
	cfg.Requests = 10
	cfg.NeighborRequests = 10
	opts := ShardOptions{Groups: 8}

	plain, err := RunSharded(cfg, tightGuardAdmitter(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Blocked == 0 || plain.Dropped == 0 || plain.HandoffAccepted == 0 {
		t.Fatalf("run exercises too little: blocked=%d dropped=%d handoffs=%d",
			plain.Blocked, plain.Dropped, plain.HandoffAccepted)
	}
	var first *metrics.Snapshot
	for i, workers := range []int{1, 2, 4} {
		reg, err := metrics.New(cfg.Topology.Slots())
		if err != nil {
			t.Fatal(err)
		}
		tapped := cfg
		tapped.Metrics = reg
		opts.Workers = workers
		res, err := RunSharded(tapped, tightGuardAdmitter(t), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d := resultDiff(plain, res); d != "" {
			t.Errorf("workers=%d: metrics tap changed the run: %s", workers, d)
		}
		admits, blocks, drops := counterTotals(reg)
		if want := res.Accepted + res.HandoffAccepted; int(admits) != want {
			t.Errorf("workers=%d: admits = %d, want Accepted+HandoffAccepted %d", workers, admits, want)
		}
		if int(blocks) != res.Blocked || int(drops) != res.Dropped {
			t.Errorf("workers=%d: blocks/drops = %d/%d, want %d/%d", workers, blocks, drops, res.Blocked, res.Dropped)
		}
		snap := reg.Snapshot(nil)
		if i == 0 {
			first = snap
			continue
		}
		for cell := 0; cell < reg.Cells(); cell++ {
			for _, cl := range traffic.Classes() {
				for _, c := range []metrics.Counter{metrics.Admits(cl), metrics.Blocks(cl), metrics.Drops(cl)} {
					if snap.Counter(cell, c) != first.Counter(cell, c) {
						t.Fatalf("workers=%d: cell %d counter %d = %d, 1 worker had %d",
							workers, cell, c, snap.Counter(cell, c), first.Counter(cell, c))
					}
				}
			}
		}
	}
}

// TestShardOptionsResolve pins the workers<=groups usage rule and the
// defaults.
func TestShardOptionsResolve(t *testing.T) {
	topo := hexgrid.DiskTopology(hexgrid.Coord{}, 2) // 19 cells
	if _, _, err := (ShardOptions{Groups: 4, Workers: 8}).Resolve(topo); err == nil {
		t.Error("8 workers over 4 groups accepted")
	}
	if _, _, err := (ShardOptions{Groups: -1}).Resolve(topo); err == nil {
		t.Error("negative groups accepted")
	}
	if _, _, err := (ShardOptions{Workers: -1}).Resolve(topo); err == nil {
		t.Error("negative workers accepted")
	}
	groups, workers, err := ShardOptions{}.Resolve(topo)
	if err != nil {
		t.Fatal(err)
	}
	if groups != topo.DefaultGroups() {
		t.Errorf("default groups = %d, want %d", groups, topo.DefaultGroups())
	}
	if workers < 1 || workers > groups {
		t.Errorf("default workers = %d outside [1, %d]", workers, groups)
	}
	// More groups than cells clamp to the cell count.
	groups, _, err = ShardOptions{Groups: 1000, Workers: 1}.Resolve(topo)
	if err != nil {
		t.Fatal(err)
	}
	if groups != topo.Cells() {
		t.Errorf("oversized group count resolved to %d, want %d", groups, topo.Cells())
	}
}

// adaptAdmitterT adapts the adapt_test helper signature for reuse here.
func adaptAdmitterT(t *testing.T) Admitter { return adaptAdmitter(t) }
