package loadgen

import (
	"net"
	"testing"
	"time"

	"facsp/internal/baseline"
	"facsp/internal/bsd"
	"facsp/internal/cac"
	"facsp/internal/core"
)

func TestProfileByName(t *testing.T) {
	for _, name := range Profiles() {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatalf("ProfileByName(%q): %v", name, err)
		}
		if name == "flat" {
			if len(p) != 0 {
				t.Errorf("flat profile has %d knots", len(p))
			}
			continue
		}
		if len(p) == 0 {
			t.Errorf("%s profile is empty", name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s profile invalid: %v", name, err)
		}
	}
	// The flash-crowd shape must keep its defining 8x spike.
	p, err := ProfileByName("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxRate() != 8 {
		t.Errorf("flash-crowd peak = %v, want 8", p.MaxRate())
	}
	if _, err := ProfileByName("bogus"); err == nil {
		t.Error("unknown profile accepted")
	}
}

// TestScheduleDeterministicAndShaped pins the open-loop plan: the same
// seed draws the same schedule, arrivals stay inside the window and
// spread over the cell range, and the flash-crowd spike concentrates
// arrivals mid-window.
func TestScheduleDeterministicAndShaped(t *testing.T) {
	cfg := Config{
		Addr: "x", Profile: "flash-crowd", Duration: 10 * time.Second,
		Rate: 400, Cells: 3, Seed: 7,
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	profile, err := ProfileByName(cfg.Profile)
	if err != nil {
		t.Fatal(err)
	}
	a, b := schedule(cfg, profile), schedule(cfg, profile)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed drew %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between identical configs", i)
		}
	}

	cells := map[int]bool{}
	var spike, base int
	for i, ar := range a {
		if ar.at < 0 || ar.at >= cfg.Duration {
			t.Fatalf("arrival %d at %v outside [0, %v)", i, ar.at, cfg.Duration)
		}
		if ar.cell < 0 || ar.cell >= cfg.Cells {
			t.Fatalf("arrival %d on cell %d outside [0, %d)", i, ar.cell, cfg.Cells)
		}
		cells[ar.cell] = true
		// The profile's spike spans [210s, 270s] of its 600s axis: scaled
		// onto 10s that is [3.5s, 4.5s]; compare against an equally long
		// flat stretch at the start.
		switch {
		case ar.at >= 3500*time.Millisecond && ar.at < 4500*time.Millisecond:
			spike++
		case ar.at < time.Second:
			base++
		}
	}
	if len(cells) != cfg.Cells {
		t.Errorf("arrivals touched %d cells, want %d", len(cells), cfg.Cells)
	}
	if spike < 4*base {
		t.Errorf("spike window drew %d arrivals vs %d in the flat window; want ~8x", spike, base)
	}
}

func TestRunAgainstLiveDaemon(t *testing.T) {
	cfg := core.DefaultPConfig()
	cfg.Capacity = 200
	cells := make([]cac.Controller, 2)
	for i := range cells {
		ctrl, err := core.NewFACSP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = ctrl
	}
	srv, err := bsd.New(bsd.Config{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()

	res, err := Run(Config{
		Addr:      ln.Addr().String(),
		Profile:   "flash-crowd",
		Duration:  400 * time.Millisecond,
		Rate:      500,
		Conns:     2,
		Cells:     2,
		Seed:      1,
		HoldMean:  50 * time.Millisecond,
		MinBUFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 {
		t.Fatal("no requests offered")
	}
	if res.Errors != 0 {
		t.Fatalf("protocol errors against a healthy daemon: %s", res)
	}
	if got := res.Accepted + res.Rejected + res.Shed; got != res.Offered {
		t.Errorf("outcomes %d do not partition offered %d: %s", got, res.Offered, res)
	}
	if res.Accepted == 0 {
		t.Errorf("nothing admitted: %s", res)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Errorf("implausible latency percentiles: %s", res)
	}
	if res.AdmitsPerSec <= 0 {
		t.Errorf("no throughput: %s", res)
	}
}

// slowCtrl is a controller that takes pause per admit and release, so a
// depth-1 daemon in front of it sheds both.
type slowCtrl struct {
	cac.Controller
	pause time.Duration
}

func (c slowCtrl) Admit(r cac.Request) cac.Decision {
	time.Sleep(c.pause)
	return c.Controller.Admit(r)
}

func (c slowCtrl) Release(r cac.Request) error {
	time.Sleep(c.pause)
	return c.Controller.Release(r)
}

// TestShedReleasesKeepTheIdentity overloads a depth-1 daemon so that it
// sheds admits and releases alike. A shed release is retried, not
// counted, so offered still equals accepted + rejected + shed + errors.
func TestShedReleasesKeepTheIdentity(t *testing.T) {
	inner, err := baseline.NewCompleteSharing(1000)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := bsd.New(bsd.Config{Cells: []cac.Controller{slowCtrl{inner, time.Millisecond}}, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()

	res, err := Run(Config{
		Addr:     ln.Addr().String(),
		Duration: 300 * time.Millisecond,
		Rate:     2000,
		Conns:    8,
		Seed:     1,
		HoldMean: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("protocol errors against a healthy daemon: %s", res)
	}
	if got := res.Accepted + res.Rejected + res.Shed + res.Errors; got != res.Offered {
		t.Errorf("outcomes %d do not partition offered %d: %s", got, res.Offered, res)
	}
	if res.Shed == 0 {
		t.Errorf("no admit was shed: %s", res)
	}
	// The daemon counts every shed request; the loadgen only shed admits.
	if shed := srv.Shed(); shed <= uint64(res.Shed) {
		t.Errorf("daemon shed %d requests, all admits: no release was shed", shed)
	}
	if occ := inner.Occupancy(); occ != 0 {
		t.Errorf("occupancy %v after every call ended", occ)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(Config{Addr: "x", Duration: time.Second, Rate: 100, Profile: "bogus"}); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := Run(Config{Addr: "x", Duration: time.Second, Rate: 100, MinBUFrac: 2}); err == nil {
		t.Error("out-of-range min-BU fraction accepted")
	}
}
