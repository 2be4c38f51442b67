package bsd

import (
	"net/http"

	"facsp/internal/metrics"
)

// MetricsHandler returns the daemon's observability endpoint: GET
// /metrics, a Prometheus text exposition of every per-cell series
// (admits/blocks/drops by class, shed, occupancy, capacity, degradation
// depth) plus the registered process-wide scalars (the decision-surface
// cache counters). A cell's admission demand is the sum of its admits,
// blocks, drops and shed counters: every valid admit attempt bumps exactly
// one of them (a shed release or status query bumps shed too).
//
// The handler reads live atomics and is safe to serve concurrently with
// admission traffic and with Close; it never takes a cell lock.
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.serveMetrics)
	return mux
}

func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.metrics.Snapshot(nil)
	w.Header().Set("Content-Type", metrics.PromContentType)
	if err := metrics.WriteProm(w, snap); err != nil {
		return
	}
	_ = metrics.WriteScalars(w)
}
