package cellsim

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"facsp/internal/hexgrid"
	"facsp/internal/scc"
	"facsp/internal/traffic"
)

// goldenPerCell is a heterogeneous traffic description exercising every
// per-stream override: a ramped, bursty centre, a video-heavy fast
// neighbour, and a plain background cell.
func goldenPerCell() []CellTraffic {
	videoHeavy := traffic.Mix{TextP: 0.2, VoiceP: 0.3, VideoP: 0.5}
	return []CellTraffic{
		{
			Cell: hexgrid.Coord{}, Requests: 40,
			Profile: traffic.RateProfile{{T: 0, Rate: 0.2}, {T: 300, Rate: 1}, {T: 600, Rate: 0.4}},
			Burst:   &traffic.MMPP{OnMean: 40, OffMean: 80, OnRate: 3, OffRate: 0.5},
		},
		{Cell: hexgrid.Coord{Q: 1, R: 0}, Requests: 25, Mix: &videoHeavy, Speed: Uniform(60, 120)},
		{Cell: hexgrid.Coord{Q: -1, R: 1}, Requests: 15},
	}
}

// engineGoldenCases is the oracle's matrix: the single-heap engine over
// FACS-P with exact inference, per-cell traffic, an adaptive scheme (the
// bandwidth-observer path), static calls and network-level SCC; the
// sharded engine over a homogeneous guard network, per-cell traffic on a
// topology, and the adaptive scheme.
func engineGoldenCases() map[string]func(t *testing.T, seed uint64, workers int) Result {
	runSingle := func(t *testing.T, cfg Config, adm Admitter) Result {
		s, err := New(cfg, adm)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	runSharded := func(t *testing.T, cfg Config, adm Admitter, workers int) Result {
		res, err := RunSharded(cfg, adm, ShardOptions{Groups: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	schemes := horizonSchemes()
	shardedConfig := func(seed uint64) Config {
		cfg := cityConfig(seed)
		cfg.Topology = hexgrid.DiskTopology(hexgrid.Coord{}, 4) // 61 cells
		cfg.Requests = 8
		cfg.NeighborRequests = 8
		return cfg
	}
	return map[string]func(t *testing.T, seed uint64, workers int) Result{
		"run/facsp-exact": func(t *testing.T, seed uint64, _ int) Result {
			return runSingle(t, DefaultConfig(40, seed), schemes["facsp"](t))
		},
		"run/percell": func(t *testing.T, seed uint64, _ int) Result {
			cfg := DefaultConfig(0, seed)
			cfg.NeighborRequests = 0
			cfg.PerCell = goldenPerCell()
			return runSingle(t, cfg, schemes["facsp"](t))
		},
		"run/adapt": func(t *testing.T, seed uint64, _ int) Result {
			return runSingle(t, DefaultConfig(40, seed), schemes["adapt"](t))
		},
		"run/static": func(t *testing.T, seed uint64, _ int) Result {
			cfg := DefaultConfig(40, seed)
			cfg.Static = true
			return runSingle(t, cfg, schemes["facsp"](t))
		},
		"run/scc": func(t *testing.T, seed uint64, _ int) Result {
			adm, err := scc.New(scc.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return runSingle(t, DefaultConfig(40, seed), adm)
		},
		"sharded/guard": func(t *testing.T, seed uint64, workers int) Result {
			return runSharded(t, shardedConfig(seed), tightGuardAdmitter(t), workers)
		},
		"sharded/percell": func(t *testing.T, seed uint64, workers int) Result {
			cfg := shardedConfig(seed)
			cfg.Requests, cfg.NeighborRequests = 0, 0
			cfg.Window = 600
			cfg.PerCell = goldenPerCell()
			cfg.PerCell = append(cfg.PerCell, CellTraffic{Cell: hexgrid.Coord{Q: 3, R: -2}, Requests: 20})
			return runSharded(t, cfg, tightGuardAdmitter(t), workers)
		},
		"sharded/adapt": func(t *testing.T, seed uint64, workers int) Result {
			cfg := shardedConfig(seed)
			cfg.Requests, cfg.NeighborRequests = 20, 20
			return runSharded(t, cfg, schemes["adapt"](t), workers)
		},
	}
}

// engineGolden holds each case's Result fingerprint (resultFingerprint) at
// seeds 1, 2 and 3.
var engineGolden = map[string][3]string{
	"run/adapt":       {"a4182ef80a177f7b", "24c3c416227f5535", "2068eb615371cac1"},
	"run/facsp-exact": {"a58ea681ed1422d6", "84f1bf5553671afb", "96bd932636c711cf"},
	"run/percell":     {"687b1e389f26ce75", "a314290a62db4ffb", "2af9bc92f219e43a"},
	"run/scc":         {"a2489c59e31cebe6", "8c53a825ec57941d", "ba0772571206b1ca"},
	"run/static":      {"83e6e9bf496dee7b", "d9c9f9976d7661fe", "61ec85e8dddb56ce"},
	"sharded/adapt":   {"a4c29a4a5c763782", "6cfcace429c5239e", "3f2220a8aaebb239"},
	"sharded/guard":   {"1c52bd70647b55dc", "277c9b8db6ee423f", "048d631f9359650d"},
	"sharded/percell": {"d34e54990ed1d10d", "f76a985fc2ac5ad1", "4bab5fa6370f8d70"},
}

// resultFingerprint hashes a Result's bit-exact field rendering.
func resultFingerprint(r Result) string {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(resultFields(r), " ")))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestEnginesGolden pins both engines' absolute output, field by field and
// bit for bit, across the scheme and traffic paths each engine serves. A
// change to the call lifecycle that alters any Result anywhere in the
// matrix fails here; the sharded cases must also agree across worker
// counts.
func TestEnginesGolden(t *testing.T) {
	cases := engineGoldenCases()
	if len(engineGolden) != len(cases) {
		t.Errorf("golden table has %d cases, matrix has %d", len(engineGolden), len(cases))
	}
	for name, run := range cases {
		workerCounts := []int{1}
		if strings.HasPrefix(name, "sharded/") {
			workerCounts = []int{1, 4}
		}
		for seed := uint64(1); seed <= 3; seed++ {
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("%s/seed%d/w%d", name, seed, workers), func(t *testing.T) {
					res := run(t, seed, workers)
					got, want := resultFingerprint(res), engineGolden[name][seed-1]
					if got != want {
						t.Errorf("fingerprint %s, want %s; result %s", got, want, strings.Join(resultFields(res), " "))
					}
				})
			}
		}
	}
}
