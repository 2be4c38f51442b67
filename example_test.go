package facsp_test

import (
	"fmt"
	"log"
	"net"
	"time"

	"facsp"
	"facsp/internal/bsd"
)

// ExampleNewFACSP is the quick-start admit loop: build the paper's
// proposed controller, drive a few connection requests through it, and
// see a handoff admitted where the same new call is refused.
func ExampleNewFACSP() {
	ctrl, err := facsp.NewFACSP()
	if err != nil {
		log.Fatal(err)
	}
	requests := []struct {
		class        facsp.Class
		speed, angle float64
	}{
		{facsp.Voice, 60, 0},  // fast user heading at the base station
		{facsp.Video, 10, 90}, // slow user crossing the cell sideways
		{facsp.Text, 30, 45},
	}
	for _, r := range requests {
		req := facsp.NewRequest(r.class, r.speed, r.angle)
		dec := ctrl.Admit(req)
		fmt.Printf("%-5s speed=%3g angle=%2g -> accept=%-5v outcome=%s\n",
			r.class, r.speed, r.angle, dec.Accept, dec.Outcome)
		if dec.Accept {
			defer func() {
				if err := ctrl.Release(req); err != nil {
					log.Fatal(err)
				}
			}()
		}
	}

	// Priority of on-going connections: once one fast video call heading
	// away from the base station has taken the cell to 26 BU, a second is
	// refused as a new call, yet admitted as a handoff, whose only bar is
	// the free bandwidth.
	receding := facsp.NewRequest(facsp.Video, 100, 180)
	for _, handoff := range []bool{false, false, true} {
		receding.Handoff = handoff
		dec := ctrl.Admit(receding)
		fmt.Printf("video speed=100 angle=180 handoff=%-5v -> accept=%-5v cell=%.0f BU\n",
			handoff, dec.Accept, dec.Occupancy)
	}
	// The differentiated-service counters split the occupancy into
	// real-time and non-real-time bandwidth.
	rtc, nrtc := ctrl.Counters()
	fmt.Printf("counters: RTC=%.0f BU NRTC=%.0f BU\n", rtc, nrtc)
	// Output:
	// voice speed= 60 angle= 0 -> accept=true  outcome=A
	// video speed= 10 angle=90 -> accept=true  outcome=WA
	// text  speed= 30 angle=45 -> accept=true  outcome=NRNA
	// video speed=100 angle=180 handoff=false -> accept=true  cell=26 BU
	// video speed=100 angle=180 handoff=false -> accept=false cell=26 BU
	// video speed=100 angle=180 handoff=true  -> accept=true  cell=36 BU
	// counters: RTC=35 BU NRTC=1 BU
}

// ExampleWithSurfaceCache compiles the two fuzzy controllers into
// precomputed decision surfaces: the same admissions, answered by
// multilinear interpolation instead of a full Mamdani pass.
func ExampleWithSurfaceCache() {
	exact, err := facsp.NewFACSP()
	if err != nil {
		log.Fatal(err)
	}
	fast, err := facsp.NewFACSP(facsp.WithSurfaceCache(0)) // 0 = default resolution
	if err != nil {
		log.Fatal(err)
	}
	req := facsp.NewRequest(facsp.Voice, 80, 20)
	fmt.Printf("exact:   accept=%v\n", exact.Admit(req).Accept)
	fmt.Printf("surface: accept=%v\n", fast.Admit(req).Accept)
	// Output:
	// exact:   accept=true
	// surface: accept=true
}

// Example_configSweep sweeps a controller parameter — the empty-cell
// admission threshold Theta0 — to show how PConfig shapes the decision for
// one fixed borderline request.
func Example_configSweep() {
	req := facsp.NewRequest(facsp.Video, 100, 60) // fast, oblique video user
	for _, theta0 := range []float64{-0.8, -0.4, 0.2, 0.6} {
		cfg := facsp.DefaultPConfig()
		cfg.Theta0 = theta0
		ctrl, err := facsp.NewFACSP(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("theta0=%+.1f -> accept=%v\n", theta0, ctrl.Admit(req).Accept)
	}
	// Output:
	// theta0=-0.8 -> accept=true
	// theta0=-0.4 -> accept=true
	// theta0=+0.2 -> accept=true
	// theta0=+0.6 -> accept=false
}

// ExampleNewAdapt shows the adaptive bandwidth-degradation scheme doing
// its job: a full cell admits a video handoff by squeezing on-going calls
// down their degradation ladders, then restores them on release.
func ExampleNewAdapt() {
	ctrl, err := facsp.NewAdapt() // 40 BU cell, video ladder 10-7-5-3
	if err != nil {
		log.Fatal(err)
	}
	for id := uint64(1); id <= 4; id++ { // fill the cell with video calls
		ctrl.Admit(facsp.Request{ID: id, Bandwidth: 10, RealTime: true})
	}
	handoff := facsp.Request{ID: 5, Bandwidth: 10, RealTime: true, Handoff: true}
	dec := ctrl.Admit(handoff)
	fmt.Printf("handoff: accept=%v allocated=%v outcome=%s\n", dec.Accept, dec.Allocated, dec.Outcome)
	alloc, _ := ctrl.Allocation(1)
	fmt.Printf("on-going call 1 degraded to %v BU\n", alloc)

	if err := ctrl.Release(handoff); err != nil {
		log.Fatal(err)
	}
	alloc, _ = ctrl.Allocation(1)
	fmt.Printf("after release call 1 is back to %v BU\n", alloc)
	// Output:
	// handoff: accept=true allocated=10 outcome=degraded-others
	// on-going call 1 degraded to 7 BU
	// after release call 1 is back to 10 BU
}

// ExampleRunScenario ranks every admission scheme on a named scenario
// from the embedded library — here the flash-crowd burst at the centre
// cell — at one (tiny) load point. SCENARIOS.md documents the library.
func ExampleRunScenario() {
	s, err := facsp.LoadScenario("flash-crowd")
	if err != nil {
		log.Fatal(err)
	}
	curves, err := facsp.RunScenario(s, facsp.ExperimentOptions{
		Loads:        []int{8},
		Replications: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %s ranks %d schemes:\n", s.Name, len(curves))
	for _, c := range curves {
		fmt.Printf("%s: %d point(s) at N=%.0f\n", c.Name, len(c.Points), c.Points[0].X)
	}
	// Output:
	// scenario flash-crowd ranks 7 schemes:
	// adapt: 1 point(s) at N=8
	// adapt-fuzzy: 1 point(s) at N=8
	// FACS: 1 point(s) at N=8
	// FACS-P: 1 point(s) at N=8
	// guard-channel: 1 point(s) at N=8
	// optimal: 1 point(s) at N=8
	// SCC: 1 point(s) at N=8
}

// Example_scenarioFile authors a scenario as JSON — the same format the
// files under internal/scenario/scenarios and the facs-sim -scenario flag
// use — and runs it: a hot-spot centre cell with double load next to a
// dead cell in outage. See SCENARIOS.md for the full schema.
func Example_scenarioFile() {
	doc := []byte(`{
		"schema": 1,
		"name": "hotspot-next-to-outage",
		"cells": [
			{"at": [0, 0], "load": 2},
			{"at": [1, 0], "capacity_scale": 0}
		]
	}`)
	s, err := facsp.ScenarioFromJSON(doc) // facsp.ScenarioFromFile reads from disk
	if err != nil {
		log.Fatal(err)
	}
	curves, err := facsp.RunScenario(s, facsp.ExperimentOptions{
		Loads:        []int{10},
		Replications: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The dead cell makes capacity heterogeneous, so the network-level SCC
	// comparator sits this scenario out.
	fmt.Printf("%s: %d schemes ranked\n", s.Name, len(curves))
	for _, c := range curves {
		fmt.Println(c.Name)
	}
	// Output:
	// hotspot-next-to-outage: 6 schemes ranked
	// adapt
	// adapt-fuzzy
	// FACS
	// FACS-P
	// guard-channel
	// optimal
}

// ExampleRunFigure regenerates (a tiny slice of) one of the paper's
// figures; sweeps are deterministic for a given ExperimentOptions, however
// many workers shard them.
func ExampleRunFigure() {
	curves, err := facsp.RunFigure("10", facsp.ExperimentOptions{
		Loads:        []int{10},
		Replications: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range curves {
		fmt.Printf("%s: %d point(s) at N=%.0f\n", c.Name, len(c.Points), c.Points[0].X)
	}
	// Output:
	// FACS-P (proposed): 1 point(s) at N=10
	// FACS (previous): 1 point(s) at N=10
}

// ExampleSimulateFACSP runs the event-driven network simulation the
// paper's figures are measured on — a 7-cell cluster, the Section 4
// traffic mix, moving users, handoffs — for the proposed FACS-P and the
// previous FACS on the same seeded workload, and prints the centre
// cell's call-level accounting.
func ExampleSimulateFACSP() {
	// 80 requesting connections at the tagged centre cell (plus the same
	// background load at each neighbour), paper Section 4 parameters.
	cfg := facsp.DefaultSimConfig(80, 42 /* seed */)
	for _, scheme := range []struct {
		name string
		run  func(facsp.SimConfig) (facsp.SimResult, error)
	}{
		{"FACS-P", facsp.SimulateFACSP},
		{"FACS", facsp.SimulateFACS},
	} {
		res, err := scheme.run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: accepted %d/%d (%.1f%%), handoffs %d/%d, dropped %d (%.1f%% of admitted)\n",
			scheme.name, res.Accepted, res.Requests, res.AcceptedPct(),
			res.HandoffAccepted, res.HandoffAttempts, res.Dropped, res.DropPct())
	}
	// Output:
	// FACS-P: accepted 31/80 (38.8%), handoffs 31/31, dropped 0 (0.0% of admitted)
	// FACS: accepted 32/80 (40.0%), handoffs 17/23, dropped 6 (18.8% of admitted)
}

// ExamplePConfig_priorityStep shows the requesting-connection priority
// extension the paper lists as future work: with PriorityStep set, a
// priority-2 request faces an admission threshold 2×PriorityStep lower,
// so a loaded cell admits it where it refuses the same ordinary call.
func ExamplePConfig_priorityStep() {
	cfg := facsp.DefaultPConfig()
	cfg.PriorityStep = 0.3
	ctrl, err := facsp.NewFACSP(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Load the cell so ordinary borderline calls start being refused.
	filler := facsp.NewRequest(facsp.Voice, 80, 0)
	for ctrl.Occupancy() < 25 {
		if !ctrl.Admit(filler).Accept {
			break
		}
	}
	ordinary := facsp.NewRequest(facsp.Voice, 20, 120)
	urgent := ordinary
	urgent.Priority = 2
	fmt.Printf("loaded cell at %.0f BU\n", ctrl.Occupancy())
	fmt.Printf("ordinary call:   accept=%v\n", ctrl.Admit(ordinary).Accept)
	fmt.Printf("priority-2 call: accept=%v\n", ctrl.Admit(urgent).Accept)
	// Output:
	// loaded cell at 25 BU
	// ordinary call:   accept=false
	// priority-2 call: accept=true
}

// Example_distributed runs the base-station admission daemon behind
// cmd/facs-server in-process and drives it over TCP: one handset crashes
// mid-call, and the daemon reclaims its bandwidth without a release.
func Example_distributed() {
	ctrl, err := facsp.NewFACSP()
	if err != nil {
		log.Fatal(err)
	}
	srv, err := bsd.NewServer(ctrl)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	dial := func() *bsd.Client {
		cl, err := bsd.Dial(ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		return cl
	}

	h1 := dial() // a well-behaved voice call
	resp, err := h1.Admit(1, "voice", 60, 10, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("handset 1 voice call: accept=%v cell=%.0f BU\n", resp.Accept, resp.Occupancy)

	h2 := dial() // a video call that crashes without releasing
	if resp, err = h2.Admit(2, "video", 80, 0, false); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("handset 2 video call: accept=%v cell=%.0f BU\n", resp.Accept, resp.Occupancy)
	_ = h2.Close()

	// The daemon reclaims a dead session's grants when it notices the
	// closed connection; poll the cell until it has.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := h1.Status()
		if err != nil {
			log.Fatal(err)
		}
		if st.Occupancy == 5 {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("crashed session's grant not reclaimed: cell=%v BU", st.Occupancy)
		}
	}
	fmt.Println("handset 2 crashed; its grant is reclaimed: cell=5 BU")

	if resp, err = h1.Release(1, "voice"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("handset 1 hangs up: cell=%.0f BU\n", resp.Occupancy)
	h1.Close()
	_ = srv.Close()
	<-served
	// Output:
	// handset 1 voice call: accept=true cell=5 BU
	// handset 2 video call: accept=true cell=15 BU
	// handset 2 crashed; its grant is reclaimed: cell=5 BU
	// handset 1 hangs up: cell=0 BU
}
