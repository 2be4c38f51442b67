package perf

import (
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"facsp/internal/bsd"
	"facsp/internal/cac"
	"facsp/internal/core"
	"facsp/internal/loadgen"
	"facsp/internal/wire"
)

// startDaemon boots an in-process admission daemon with cells FACS-P
// cells on a loopback port and returns its address. The daemon lives for
// the rest of the benchmark process (Spec has no teardown hook); it is
// idle outside the measured bodies, so the handful of parked goroutines
// does not perturb other specs.
func startDaemon(cells int, capacity float64) (string, error) {
	ctrls := make([]cac.Controller, cells)
	for i := range ctrls {
		cfg := core.DefaultPConfig()
		cfg.Capacity = capacity
		ctrl, err := core.NewFACSP(cfg)
		if err != nil {
			return "", err
		}
		ctrls[i] = ctrl
	}
	srv, err := bsd.New(bsd.Config{Cells: ctrls})
	if err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// wireCodec measures the codec's share of one admission round trip: a
// handoff admit of the serve-surface workload and its reply, each
// encoded through wire.Encoder and decoded through wire.Decoder over an
// in-memory buffer that every decode drains. The messages are boxed once,
// as pointers, the way bsd hands them to the codec.
func wireCodec() (Body, error) {
	req := wire.Request{V: wire.Version, Op: wire.OpAdmit, ID: 48213, Cell: 11, Class: "voice",
		SpeedKmh: 87.25391827418273, AngleDeg: -141.0742512300193, Handoff: true, Priority: 1}
	resp := wire.Response{V: wire.Version, OK: true, Cell: 11, Accept: true,
		Score: 0.23619479588383414, Outcome: "WA", Occupancy: 31, Capacity: 40, Scheme: "FACS-P"}
	var (
		buf      bytes.Buffer
		gotReq   wire.Request
		gotResp  wire.Response
		send     = []any{&req, &resp}
		recv     = []any{&gotReq, &gotResp}
		enc, dec = wire.NewEncoder(&buf), wire.NewDecoder(&buf)
	)
	return func(n int) (int64, error) {
		for i := 0; i < n; i++ {
			for j := range send {
				if err := enc.Encode(send[j]); err != nil {
					return 0, err
				}
				if err := dec.Decode(recv[j]); err != nil {
					return 0, err
				}
			}
		}
		if n > 0 && (gotReq != req || gotResp != resp) {
			return 0, fmt.Errorf("wire codec: decoded %+v / %+v, want %+v / %+v", gotReq, gotResp, req, resp)
		}
		return 0, nil
	}, nil
}

// serverRoundtripSpec measures one closed-loop admit+release pair per op
// over real loopback TCP — the wire-protocol analogue of micro/admit:
// JSON framing, the session grant table and the per-cell lock on top of
// the controller itself.
func serverRoundtripSpec() Spec {
	return Spec{Name: "server/roundtrip", Smoke: true, New: func() (Body, error) {
		addr, err := startDaemon(1, 40)
		if err != nil {
			return nil, err
		}
		cl, err := bsd.Dial(addr)
		if err != nil {
			return nil, err
		}
		return func(n int) (int64, error) {
			for i := 0; i < n; i++ {
				resp, err := cl.Admit(1, "voice", 60, 15, false)
				if err != nil {
					return 0, err
				}
				if !resp.OK {
					return 0, fmt.Errorf("admit refused: %s", resp.Err)
				}
				if !resp.Accept {
					continue // an empty 40 BU cell accepts a lone voice call
				}
				if resp, err = cl.Release(1, "voice"); err != nil {
					return 0, err
				}
				if !resp.OK {
					return 0, fmt.Errorf("release refused: %s", resp.Err)
				}
			}
			return 0, nil
		}, nil
	}}
}

// serverFlashCrowdSpec replays the scenario library's flash-crowd
// profile against a live 4-cell daemon through the open-loop generator:
// one complete time-scaled run per op. The per-op time is the scheduled
// window plus drain (wall-paced — see Result.WallPaced), so the gated
// signal is schedule slip and allocs; the headline serving numbers land
// in Extra as admits_per_sec, p50_ns and p99_ns.
func serverFlashCrowdSpec() Spec {
	var last atomic.Pointer[loadgen.Result]
	return Spec{
		Name:      "server/flash-crowd",
		Smoke:     true,
		WallPaced: true,
		New: func() (Body, error) {
			addr, err := startDaemon(4, 200)
			if err != nil {
				return nil, err
			}
			return func(n int) (int64, error) {
				var offered int64
				for i := 0; i < n; i++ {
					res, err := loadgen.Run(loadgen.Config{
						Addr:      addr,
						Profile:   "flash-crowd",
						Duration:  600 * time.Millisecond,
						Rate:      2000,
						Conns:     4,
						Cells:     4,
						Seed:      uint64(i) + 1,
						HoldMean:  100 * time.Millisecond,
						MinBUFrac: 0.5,
					})
					if err != nil {
						return 0, err
					}
					if res.Errors > 0 {
						return 0, fmt.Errorf("flash-crowd run: %d protocol error(s): %s", res.Errors, res)
					}
					offered += int64(res.Offered)
					last.Store(&res)
				}
				return offered, nil
			}, nil
		},
		Extra: func() map[string]float64 {
			res := last.Load()
			if res == nil {
				return nil
			}
			return map[string]float64{
				"admits_per_sec": res.AdmitsPerSec,
				"p50_ns":         float64(res.P50.Nanoseconds()),
				"p99_ns":         float64(res.P99.Nanoseconds()),
			}
		},
	}
}
