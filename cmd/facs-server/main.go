// Command facs-server runs a base-station admission daemon: a TCP server
// answering wire-protocol (JSON lines) admission queries against a chosen
// call-admission scheme.
//
// Usage:
//
//	facs-server -addr :4077 -scheme facsp
//	facs-server -scheme guard -capacity 40 -guard 8
//	facs-server -scheme adapt            # adaptive bandwidth degradation
//	facs-server -scheme adapt-fuzzy      # degradation gated by the fuzzy pipeline
//	facs-server -cells 7 -queue 512      # 7-cell daemon, more requests may wait per cell
//	facs-server -surface 33              # fuzzy schemes on precomputed decision surfaces
//
// Schemes: facsp (FACS-P, the paper's proposal), facs (the previous fuzzy
// system), guard (cutoff priority), sharing (complete sharing), adapt and
// adapt-fuzzy (adaptive bandwidth degradation, internal/adapt), optimal
// (the value-iteration threshold policy, internal/optimal).
//
// The daemon serves -cells independent cells, each with its own admission
// controller of the chosen scheme and its own lock; requests address a
// cell with the wire "cell" field. Each session runs its requests on the
// cell under that lock, and at most -queue requests may wait there behind
// the running one: a request arriving when -queue are already waiting is
// shed immediately with an "overloaded" error response instead of piling
// up without limit.
//
// # Wire protocol
//
// One JSON object per line in each direction (internal/wire, version 1).
// Requests carry "v" (must be 1) and "op": "admit", "release" or "status".
// An optional "cell" field addresses one cell of a multi-cell daemon by
// index; when absent the request targets cell 0, so single-cell clients
// predating the field keep working unchanged. Responses echo the cell in
// "cell" (omitted for cell 0).
//
// Admit asks the cell to admit connection "id" of service class "class"
// ("text", "voice" or "video"; the class fixes the requested bandwidth at
// 1/5/10 BU). Optional fields: "speed_kmh" and "angle_deg" feed the fuzzy
// schemes' mobility inputs, "handoff" marks an on-going call entering from
// a neighbour cell (prioritised by facsp and the adapt schemes),
// "priority" is the requesting-connection priority level, and "min_bu" is
// the lowest bandwidth the connection tolerates when served by an adaptive
// scheme:
//
//	-> {"v":1,"op":"admit","id":1,"class":"voice","speed_kmh":60,"angle_deg":10}
//	<- {"v":1,"ok":true,"accept":true,"score":0.62,"outcome":"A","occupancy":5,"capacity":40,"scheme":"FACS-P"}
//
// or, against an adapt cell already full with four on-going videos (each
// squeezed one ladder step, 10 → 7 BU, freeing 12 BU for the 10 BU grant):
//
//	-> {"v":1,"op":"admit","id":5,"class":"video","handoff":true,"min_bu":5}
//	<- {"v":1,"ok":true,"accept":true,"score":1,"outcome":"degraded-others","allocated":10,"occupancy":38,"capacity":40,"scheme":"adapt"}
//
// On an accepted admit, "allocated" is the bandwidth actually granted:
// adaptive schemes may grant less than the class bandwidth (a degraded
// admission) and may later change it mid-call; when absent, the full class
// bandwidth was granted.
//
// Release returns the bandwidth of a connection previously admitted on
// this session; status reports the cell state without changing it. Both
// answer with the shared response fields only:
//
//	-> {"v":1,"op":"release","id":1,"class":"voice"}
//	<- {"v":1,"ok":true,"occupancy":0,"capacity":40,"scheme":"FACS-P"}
//	-> {"v":1,"op":"status"}
//	<- {"v":1,"ok":true,"occupancy":0,"capacity":40,"scheme":"FACS-P"}
//
// Every response carries "occupancy", "capacity" and "scheme", reporting
// the state its own operation produced (the daemon runs each cell's
// operations one at a time under the cell's lock, so the numbers are
// exact, not racy read-afters). Errors — an unknown op, class or cell, a bad version, a
// duplicate admit, a release of a connection not admitted on the session —
// answer with "ok":false and the message in "err":
//
//	<- {"v":1,"ok":false,"err":"bsd: connection 7 not admitted on this session","occupancy":0,"capacity":40,"scheme":"FACS-P"}
//
// A request shed because -queue requests were already waiting at its cell
// additionally carries the machine-readable "code":"overloaded" so load
// generators and neighbour cells can tell backpressure from protocol bugs;
// the request had no effect and may be retried:
//
//	<- {"v":1,"ok":false,"err":"bsd: cell 0 overloaded: request queue full","code":"overloaded","occupancy":37,"capacity":40,"scheme":"FACS-P"}
//
// A malformed line (unparseable JSON, oversized line) is answered once
// with an error reply, then the session is closed. A disconnecting client
// automatically releases every bandwidth unit it holds, so crashed
// handsets cannot leak cell capacity.
//
// # Observability
//
// -metrics starts an HTTP observability listener on a second address
// (off by default):
//
//	facs-server -addr :4077 -metrics 127.0.0.1:4092
//
// GET /metrics serves Prometheus text exposition: per-cell admission
// counters (facs_admits_total, facs_blocks_total, facs_drops_total,
// labelled by cell and class), facs_shed_total, the occupancy/capacity/
// degradation gauges and the process-wide decision-surface cache
// counters. A cell's admission demand is the sum of its admits, blocks,
// drops and shed counters; a Prometheus rate() over them gives it over any
// window. The counters live on the admission hot path as plain atomic
// adds, so scraping never takes a cell lock and never slows admission.
//
// # Decision surfaces
//
// -surface N runs the fuzzy schemes (facsp, facs, adapt-fuzzy) on
// precomputed decision surfaces with N ticks per input axis, exactly as
// facs-sim -surface N does: FLC1 and FLC2 are compiled once per process
// and every cell answers by multilinear interpolation instead of a full
// Mamdani pass. The default 0 keeps exact inference; 1, negative values
// and a non-zero N with a crisp scheme are rejected before the daemon
// listens.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"facsp/internal/adapt"
	"facsp/internal/baseline"
	"facsp/internal/bsd"
	"facsp/internal/cac"
	"facsp/internal/core"
	"facsp/internal/optimal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "facs-server:", err)
		os.Exit(1)
	}
}

// options are the admission daemon's parameters (every flag but -metrics).
type options struct {
	addr, scheme    string
	capacity, guard float64
	cells, queue    int
	surface         int
}

func run(args []string) error {
	fs := flag.NewFlagSet("facs-server", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.addr, "addr", "127.0.0.1:4077", "listen address")
	fs.StringVar(&o.scheme, "scheme", "facsp", "admission scheme: facsp, facs, guard, sharing, adapt, adapt-fuzzy, optimal")
	fs.Float64Var(&o.capacity, "capacity", 40, "cell capacity in bandwidth units")
	fs.Float64Var(&o.guard, "guard", 8, "guard band in BU (guard scheme only)")
	fs.IntVar(&o.cells, "cells", 1, "number of independent cells the daemon serves")
	fs.IntVar(&o.queue, "queue", bsd.DefaultQueueDepth, "bound on requests waiting at a cell's lock behind the running one; more are shed as overloaded")
	metrics := fs.String("metrics", "", "HTTP observability listen address (/metrics); empty disables")
	fs.IntVar(&o.surface, "surface", 0, "run the fuzzy schemes on precomputed decision surfaces with this per-axis resolution (0 = exact inference)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv, ln, err := listen(o)
	if err != nil {
		return err
	}

	var mln net.Listener
	if *metrics != "" {
		mln, err = net.Listen("tcp", *metrics)
		if err != nil {
			_ = ln.Close()
			return fmt.Errorf("metrics listener: %w", err)
		}
		msrv := &http.Server{Handler: srv.MetricsHandler(), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := msrv.Serve(mln); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "facs-server: metrics:", err)
			}
		}()
		fmt.Printf("facs-server: metrics on http://%s/metrics\n", mln.Addr())
	}

	// Graceful shutdown on SIGINT/SIGTERM.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("facs-server: shutting down")
		if mln != nil {
			_ = mln.Close()
		}
		_ = srv.Close()
	}()

	if err := srv.Serve(ln); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// listen validates the daemon's parameters, builds one controller per cell
// and opens the admission listener on addr. Nothing listens unless every
// parameter is valid.
func listen(o options) (*bsd.Server, net.Listener, error) {
	if o.cells < 1 {
		return nil, nil, fmt.Errorf("need at least one cell, got %d", o.cells)
	}
	if err := core.ValidateSurfaceResolution(o.surface); err != nil {
		return nil, nil, fmt.Errorf("-surface: %w", err)
	}
	ctrls := make([]cac.Controller, o.cells)
	for i := range ctrls {
		ctrl, err := buildController(o.scheme, o.capacity, o.guard, o.surface)
		if err != nil {
			return nil, nil, err
		}
		ctrls[i] = ctrl
	}
	srv, err := bsd.New(bsd.Config{Cells: ctrls, QueueDepth: o.queue})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("facs-server: %d %s cell(s) (%.0f BU each) listening on %s\n",
		o.cells, cac.Name(ctrls[0]), o.capacity, ln.Addr())
	return srv, ln, nil
}

// buildController builds one cell's controller. surface is the per-axis
// decision-surface resolution of the fuzzy schemes (0 = exact inference);
// the crisp schemes have no fuzzy pipeline and reject a non-zero one.
func buildController(scheme string, capacity, guard float64, surface int) (cac.Controller, error) {
	if fuzzy := scheme == "facsp" || scheme == "facs" || scheme == "adapt-fuzzy"; surface != 0 && !fuzzy {
		return nil, fmt.Errorf("-surface %d needs a fuzzy scheme (facsp, facs or adapt-fuzzy), got %q", surface, scheme)
	}
	switch scheme {
	case "facsp":
		cfg := core.DefaultPConfig()
		cfg.Capacity = capacity
		cfg.SurfaceResolution = surface
		return core.NewFACSP(cfg)
	case "facs":
		cfg := core.DefaultConfig()
		cfg.Capacity = capacity
		cfg.SurfaceResolution = surface
		return core.NewFACS(cfg)
	case "guard":
		return baseline.NewGuardChannel(capacity, guard)
	case "sharing":
		return baseline.NewCompleteSharing(capacity)
	case "adapt":
		cfg := adapt.DefaultConfig()
		cfg.Capacity = capacity
		return adapt.New(cfg)
	case "adapt-fuzzy":
		cfg := adapt.DefaultConfig()
		cfg.Capacity = capacity
		pcfg := core.DefaultPConfig()
		pcfg.SurfaceResolution = surface
		return adapt.NewFuzzy(cfg, pcfg)
	case "optimal":
		return optimal.ForCapacity(capacity)
	default:
		return nil, fmt.Errorf("unknown scheme %q (have facsp, facs, guard, sharing, adapt, adapt-fuzzy, optimal)", scheme)
	}
}
