package main

import (
	"net"
	"strings"
	"testing"

	"facsp"
	"facsp/internal/bsd"
	"facsp/internal/cac"
	"facsp/internal/core"
	"facsp/internal/rng"
	"facsp/internal/traffic"
)

func TestBuildController(t *testing.T) {
	tests := []struct {
		scheme  string
		want    string
		wantErr bool
	}{
		{scheme: "facsp", want: "FACS-P"},
		{scheme: "facs", want: "FACS"},
		{scheme: "guard", want: "guard-channel"},
		{scheme: "sharing", want: "complete-sharing"},
		{scheme: "adapt", want: "adapt"},
		{scheme: "adapt-fuzzy", want: "adapt-fuzzy"},
		{scheme: "optimal", want: "optimal"},
		{scheme: "mystery", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.scheme, func(t *testing.T) {
			ctrl, err := buildController(tt.scheme, 40, 8, 0)
			if (err != nil) != tt.wantErr {
				t.Fatalf("buildController error = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if got := cac.Name(ctrl); got != tt.want {
				t.Errorf("scheme name = %q, want %q", got, tt.want)
			}
			if got := ctrl.Capacity(); got != 40 {
				t.Errorf("capacity = %v", got)
			}
		})
	}
}

func TestBuildControllerInvalidParams(t *testing.T) {
	if _, err := buildController("facsp", -1, 0, 0); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := buildController("adapt", -1, 0, 0); err == nil {
		t.Error("negative adapt capacity accepted")
	}
	if _, err := buildController("guard", 40, 40, 0); err == nil {
		t.Error("guard == capacity accepted")
	}
}

func TestRunRejectsBadScheme(t *testing.T) {
	if err := run([]string{"-scheme", "nope", "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("bad scheme accepted")
	}
}

func TestRunRejectsBadSurface(t *testing.T) {
	// Hold the listen address: a flag that got past validation would fail
	// with "address already in use" instead of the -surface error, so the
	// test also proves the rejection comes before the daemon listens.
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	addr := busy.Addr().String()
	for _, args := range [][]string{
		{"-surface", "1"},
		{"-surface", "-1"},
		{"-surface", "33", "-scheme", "guard"},
		{"-surface", "33", "-scheme", "adapt"},
	} {
		err := run(append(args, "-addr", addr))
		if err == nil || !strings.Contains(err.Error(), "-surface") {
			t.Errorf("run(%v) = %v, want a -surface error before listening", args, err)
		}
	}
}

// TestSurfaceServesLikeInProcess drives a -surface 33 daemon over TCP and
// an in-process WithSurfaceCache(33) controller with the same randomized
// admit/release sequence: every decision, score, outcome and occupancy
// must match exactly, and the scores must differ from exact inference
// somewhere (the flag really selects the surface).
func TestSurfaceServesLikeInProcess(t *testing.T) {
	srv, ln, err := listen(options{addr: "127.0.0.1:0", scheme: "facsp", capacity: 40, guard: 8, cells: 1, surface: 33})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	cl, err := bsd.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	want, err := facsp.NewFACSP(facsp.WithSurfaceCache(33))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := facsp.NewFACSP()
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(29)
	type grant struct {
		id    uint64
		class traffic.Class
		req   cac.Request
	}
	var held []grant
	differs := 0
	for id := uint64(1); id <= 400; id++ {
		if len(held) > 0 && src.Bool(0.3) {
			i := src.Intn(len(held))
			g := held[i]
			held = append(held[:i], held[i+1:]...)
			resp, err := cl.Release(g.id, g.class.String())
			if err != nil || !resp.OK {
				t.Fatalf("release %d: %+v, %v", g.id, resp, err)
			}
			if err := want.Release(g.req); err != nil {
				t.Fatal(err)
			}
			if resp.Occupancy != want.Occupancy() {
				t.Fatalf("release %d: daemon occupancy %v, in-process %v", g.id, resp.Occupancy, want.Occupancy())
			}
		}
		class := traffic.Classes()[src.Intn(3)]
		req := facsp.NewRequest(class, src.Uniform(core.SpeedMin, core.SpeedMax), src.Uniform(core.AngleMin, core.AngleMax))
		req.Handoff = src.Bool(0.2)
		rtc, nrtc := want.Counters()
		ed, err := exact.Evaluate(req, rtc, nrtc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Admit(id, class.String(), req.Speed, req.Angle, req.Handoff)
		if err != nil || !got.OK {
			t.Fatalf("admit %d: %+v, %v", id, got, err)
		}
		d := want.Admit(req)
		if got.Accept != d.Accept || got.Score != d.Score || got.Outcome != d.Outcome || got.Occupancy != d.Occupancy {
			t.Fatalf("admit %d (%+v): daemon {accept %v score %v outcome %q occupancy %v}, in-process %+v",
				id, req, got.Accept, got.Score, got.Outcome, got.Occupancy, d)
		}
		if d.Accept {
			held = append(held, grant{id, class, req})
		}
		if d.Score != ed.Score {
			differs++
		}
	}
	if differs == 0 {
		t.Error("-surface 33 scored every request exactly like exact inference")
	}
}
