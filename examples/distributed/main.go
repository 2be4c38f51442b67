// Distributed: run a base-station admission daemon and drive it over TCP,
// all in one process — the deployment shape of cmd/facs-server and its
// wire-protocol clients, self-contained for easy reading.
//
// Three handsets connect to the cell; one of them crashes mid-call and the
// daemon reclaims its bandwidth automatically.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"facsp"
	"facsp/internal/bsd"
)

func main() {
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
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	addr := ln.Addr().String()
	fmt.Printf("base station (FACS-P, 40 BU) listening on %s\n\n", addr)

	// Handset 1: a well-behaved voice call.
	h1, err := bsd.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer h1.Close()
	resp, err := h1.Admit(1, "voice", 60, 10, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("handset 1 voice call: accept=%v outcome=%s cell=%.0f BU\n", resp.Accept, resp.Outcome, resp.Occupancy)

	// Handset 2: a video call that will crash without releasing.
	h2, err := bsd.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	resp, err = h2.Admit(2, "video", 80, 0, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("handset 2 video call: accept=%v cell=%.0f BU\n", resp.Accept, resp.Occupancy)

	fmt.Println("handset 2 crashes (connection drops without release)...")
	_ = h2.Close()
	waitForOccupancy(h1, 5)

	st, err := h1.Status()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("daemon reclaimed the crashed handset's bandwidth: cell=%.0f BU\n\n", st.Occupancy)

	// Handset 3: an on-going call handing off into this cell — priority.
	h3, err := bsd.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer h3.Close()
	resp, err = h3.Admit(3, "video", 100, 180, true /* handoff */)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("handset 3 handoff (receding video): accept=%v — on-going connections have priority\n", resp.Accept)

	if _, err := h1.Release(1, "voice"); err != nil {
		log.Fatal(err)
	}
	if _, err := h3.Release(3, "video"); err != nil {
		log.Fatal(err)
	}
	st, err = h1.Status()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all calls ended: cell=%.0f BU\n", st.Occupancy)
}

// waitForOccupancy polls until the cell drains to the target (the daemon
// reclaims a dead session asynchronously).
func waitForOccupancy(cl *bsd.Client, target float64) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := cl.Status()
		if err == nil && st.Occupancy == target {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	log.Fatal("daemon did not reclaim bandwidth in time")
}
