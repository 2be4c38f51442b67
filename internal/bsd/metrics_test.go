package bsd

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"facsp/internal/metrics"
	"facsp/internal/traffic"
	"facsp/internal/wire"
)

// startMultiCell launches a daemon of complete-sharing cells — fully
// deterministic admission (accept iff the bandwidth fits) — so counter
// expectations are exact.
func startMultiCell(t *testing.T, cells int, capacity float64) (addr string, srv *Server, shutdown func()) {
	t.Helper()
	return startConfigServer(t, Config{Cells: sharingCells(t, cells, capacity)})
}

// TestCounterAccounting drives a deterministic admission sequence and
// checks every counter and gauge lands in the right cell row and column,
// and that each cell's admits + blocks + drops + shed counts its admit
// attempts — the demand signal the docs point operators to.
func TestCounterAccounting(t *testing.T) {
	addr, srv, shutdown := startConfigServer(t, Config{Cells: sharingCells(t, 2, 10), QueueDepth: 1})
	defer shutdown()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Cell 0: two voice admits fill the 10 BU; a third voice new call
	// blocks and a video handoff drops.
	for id := uint64(1); id <= 2; id++ {
		resp, err := cl.AdmitWith(id, "voice", AdmitOptions{})
		if err != nil || !resp.Accept {
			t.Fatalf("admit %d = %+v, %v", id, resp, err)
		}
	}
	if resp, err := cl.AdmitWith(3, "voice", AdmitOptions{}); err != nil || resp.Accept {
		t.Fatalf("expected voice block, got %+v, %v", resp, err)
	}
	if resp, err := cl.AdmitWith(4, "video", AdmitOptions{Handoff: true}); err != nil || resp.Accept {
		t.Fatalf("expected video drop, got %+v, %v", resp, err)
	}
	// Cell 1: one text admit, then one shed. Holding the depth-1 cell at
	// its pending bound stands in for a running request plus its waiter.
	if resp, err := cl.AdmitWith(5, "text", AdmitOptions{Cell: 1}); err != nil || !resp.Accept {
		t.Fatalf("cell 1 text admit = %+v, %v", resp, err)
	}
	srv.cells[1].pending.Store(srv.maxPending)
	if resp, err := cl.AdmitWith(6, "text", AdmitOptions{Cell: 1}); err != nil || resp.Code != wire.CodeOverloaded {
		t.Fatalf("expected cell 1 shed, got %+v, %v", resp, err)
	}
	srv.cells[1].pending.Store(0)

	reg := srv.Metrics()
	checks := []struct {
		cell int
		c    metrics.Counter
		want uint64
	}{
		{0, metrics.AdmitsVoice, 2},
		{0, metrics.BlocksVoice, 1},
		{0, metrics.DropsVideo, 1},
		{0, metrics.AdmitsText, 0},
		{0, metrics.BlocksVideo, 0},
		{1, metrics.AdmitsText, 1},
		{1, metrics.AdmitsVoice, 0},
		{1, metrics.CtrShed, 1},
	}
	for _, c := range checks {
		if got := reg.CounterValue(c.cell, c.c); got != c.want {
			t.Errorf("cell %d counter %d = %d, want %d", c.cell, c.c, got, c.want)
		}
	}
	if got := reg.GaugeValue(0, metrics.OccupancyBU); got != 10 {
		t.Errorf("cell 0 occupancy gauge = %v, want 10", got)
	}
	if got := reg.GaugeValue(0, metrics.CapacityBU); got != 10 {
		t.Errorf("cell 0 capacity gauge = %v, want 10", got)
	}
	if got := reg.GaugeValue(1, metrics.OccupancyBU); got != 1 {
		t.Errorf("cell 1 occupancy gauge = %v, want 1", got)
	}

	// A release moves the occupancy gauge back down.
	if resp, err := cl.Release(1, "voice"); err != nil || !resp.OK {
		t.Fatalf("release = %+v, %v", resp, err)
	}
	if got := reg.GaugeValue(0, metrics.OccupancyBU); got != 5 {
		t.Errorf("cell 0 occupancy after release = %v, want 5", got)
	}

	// Demand identity: every valid admit attempt bumps exactly one of
	// admits, blocks, drops or shed — 4 attempts on cell 0, 2 on cell 1.
	for cell, want := range []uint64{4, 2} {
		got := reg.CounterValue(cell, metrics.CtrShed)
		for _, cls := range traffic.Classes() {
			got += reg.CounterValue(cell, metrics.Admits(cls)) +
				reg.CounterValue(cell, metrics.Blocks(cls)) +
				reg.CounterValue(cell, metrics.Drops(cls))
		}
		if got != want {
			t.Errorf("cell %d admits+blocks+drops+shed = %d, want %d attempts", cell, got, want)
		}
	}
}

// TestMetricsEndpoint scrapes /metrics after a deterministic burst and
// checks the rendered exposition.
func TestMetricsEndpoint(t *testing.T) {
	addr, srv, shutdown := startMultiCell(t, 3, 100)
	defer shutdown()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Five attempts on cell 2, two on cell 0, none on cell 1.
	id := uint64(1)
	for i := 0; i < 5; i++ {
		if _, err := cl.AdmitWith(id, "voice", AdmitOptions{Cell: 2}); err != nil {
			t.Fatal(err)
		}
		id++
	}
	for i := 0; i < 2; i++ {
		if _, err := cl.AdmitWith(id, "text", AdmitOptions{}); err != nil {
			t.Fatal(err)
		}
		id++
	}

	h := srv.MetricsHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != metrics.PromContentType {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`facs_admits_total{cell="2",class="voice"} 5`,
		`facs_admits_total{cell="0",class="text"} 2`,
		`facs_admits_total{cell="1",class="voice"} 0`,
		`facs_occupancy_bu{cell="2"} 25`,
		`facs_capacity_bu{cell="1"} 100`,
		"# TYPE facs_surface_cache_hits_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// Unknown paths and non-GET methods miss the mux patterns.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code == http.StatusOK {
		t.Error("POST /metrics unexpectedly served")
	}
}

// TestScrapeWhileAdmitting hammers the daemon with concurrent admission
// traffic while scraping /metrics in parallel — the -race lane
// proves the lock-free counter plane has no torn access.
func TestScrapeWhileAdmitting(t *testing.T) {
	addr, srv, shutdown := startMultiCell(t, 4, 1e9)
	defer shutdown()

	const (
		clients  = 4
		perConn  = 50
		scrapers = 2
	)
	h := srv.MetricsHandler()
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for i := 0; i < scrapers; i++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < perConn; i++ {
				cell := (w + i) % 4
				if _, err := cl.AdmitWith(uint64(i+1), "voice", AdmitOptions{Cell: cell}); err != nil {
					t.Error(err)
					return
				}
				if _, err := cl.ReleaseIn(cell, uint64(i+1), "voice"); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	// Totals are exact despite the concurrent scrapes.
	var admits uint64
	reg := srv.Metrics()
	for cell := 0; cell < reg.Cells(); cell++ {
		admits += reg.CounterValue(cell, metrics.AdmitsVoice)
	}
	if want := uint64(clients * perConn); admits != want {
		t.Errorf("total voice admits = %d, want %d", admits, want)
	}
}

// TestScrapeSurvivesClose checks the observability plane outlives the TCP
// plane: scraping concurrently with Close never fails, and a scrape after
// full shutdown still serves the final counters.
func TestScrapeSurvivesClose(t *testing.T) {
	addr, srv, shutdown := startMultiCell(t, 2, 100)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AdmitWith(1, "voice", AdmitOptions{}); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	h := srv.MetricsHandler()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != http.StatusOK {
				t.Errorf("scrape during close: status %d", rec.Code)
				return
			}
		}
	}()
	shutdown()
	close(stop)
	wg.Wait()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-close scrape status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `facs_admits_total{cell="0",class="voice"} 1`) {
		t.Error("post-close scrape lost the final counters")
	}
}
