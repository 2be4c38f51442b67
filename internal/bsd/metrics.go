package bsd

import (
	"encoding/json"
	"net/http"
	"strconv"

	"facsp/internal/metrics"
)

// MetricsHandler returns the daemon's observability endpoints:
//
//   - GET /metrics — Prometheus text exposition of every per-cell series
//     (admits/blocks/drops by class, shed, occupancy, capacity,
//     degradation depth, expdecay hotness) plus the registered
//     process-wide scalars (the decision-surface cache counters).
//   - GET /hotcells — a JSON hotness ranking of the cells, hottest
//     first, each entry carrying the cell's rate and headline counters.
//     ?n=K limits the ranking to the K hottest cells.
//
// The handler reads live atomics and is safe to serve concurrently with
// admission traffic and with Close; it never takes a cell lock.
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.serveMetrics)
	mux.HandleFunc("GET /hotcells", s.serveHotCells)
	return mux
}

func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.metrics.Snapshot(nil)
	w.Header().Set("Content-Type", metrics.PromContentType)
	if err := metrics.WriteProm(w, snap); err != nil {
		return
	}
	if err := metrics.WriteCellGauge(w, "facs_hotness",
		"Exponentially decayed admission demand in requests/second (half-life "+
			strconv.FormatFloat(s.hot.HalfLife(), 'g', -1, 64)+"s).",
		s.hot.Rates(s.Uptime(), nil)); err != nil {
		return
	}
	_ = metrics.WriteScalars(w)
}

// hotCell is one /hotcells ranking entry.
type hotCell struct {
	Cell      int     `json:"cell"`
	Rate      float64 `json:"rate"`
	Admits    uint64  `json:"admits"`
	Blocks    uint64  `json:"blocks"`
	Drops     uint64  `json:"drops"`
	Shed      uint64  `json:"shed"`
	Occupancy float64 `json:"occupancy_bu"`
	Capacity  float64 `json:"capacity_bu"`
}

// hotCells is the /hotcells response document.
type hotCells struct {
	// HalfLifeS is the hotness half-life in seconds.
	HalfLifeS float64 `json:"half_life_s"`
	// UptimeS is the daemon uptime the rates were evaluated at.
	UptimeS float64 `json:"uptime_s"`
	// Cells is the ranking, hottest first (ties by ascending cell index).
	Cells []hotCell `json:"cells"`
}

func (s *Server) serveHotCells(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, "bsd: n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	now := s.Uptime()
	snap := s.metrics.Snapshot(nil)
	doc := hotCells{HalfLifeS: s.hot.HalfLife(), UptimeS: now}
	for _, cr := range s.hot.Top(now, n) {
		entry := hotCell{
			Cell:      cr.Cell,
			Rate:      cr.Rate,
			Occupancy: snap.Gauge(cr.Cell, metrics.OccupancyBU),
			Capacity:  snap.Gauge(cr.Cell, metrics.CapacityBU),
			Shed:      snap.Counter(cr.Cell, metrics.CtrShed),
		}
		for c := metrics.AdmitsText; c <= metrics.AdmitsVideo; c++ {
			entry.Admits += snap.Counter(cr.Cell, c)
		}
		for c := metrics.BlocksText; c <= metrics.BlocksVideo; c++ {
			entry.Blocks += snap.Counter(cr.Cell, c)
		}
		for c := metrics.DropsText; c <= metrics.DropsVideo; c++ {
			entry.Drops += snap.Counter(cr.Cell, c)
		}
		doc.Cells = append(doc.Cells, entry)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(doc)
}
