// Package loadgen drives a facs-server daemon with an open-loop call
// workload: arrivals fire on a schedule drawn in advance from a
// scenario-library rate profile, NOT in response to completions, so a
// slow or overloaded daemon faces the same offered load a fast one does.
// Closed-loop drivers self-throttle — every in-flight request gates the
// next — which silently converts server slowness into reduced load and
// hides tail latency. The open-loop
// schedule plus latency measured from each request's *scheduled* send
// time avoids that coordinated omission: a request delayed behind a slow
// round trip is charged for the wait.
//
// The generator reuses the simulator's traffic machinery — the default
// service-class mix and the piecewise-linear rate profiles of the
// embedded scenario library (flash-crowd's 8x centre-cell spike, the
// diurnal city curve) — time-scaled to the configured wall-clock window,
// so serving benchmarks stress the daemon with the same load shapes the
// simulation experiments use.
package loadgen

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"time"

	"facsp/internal/bsd"
	"facsp/internal/rng"
	"facsp/internal/scenario"
	"facsp/internal/traffic"
	"facsp/internal/wire"
)

// Profiles returns the selectable load-shape names.
func Profiles() []string { return []string{"flat", "flash-crowd", "diurnal"} }

// ProfileByName resolves a load-shape name to a rate profile. flash-crowd
// and diurnal come from the embedded scenario library (the centre cell's
// spike profile and the network-wide diurnal curve respectively); flat is
// the empty profile (stationary arrivals).
func ProfileByName(name string) (traffic.RateProfile, error) {
	switch name {
	case "flat":
		return nil, nil
	case "flash-crowd":
		s, err := scenario.Load("flash-crowd")
		if err != nil {
			return nil, err
		}
		return knotsToProfile(s.Cells[0].Profile), nil
	case "diurnal":
		s, err := scenario.Load("diurnal-city")
		if err != nil {
			return nil, err
		}
		return knotsToProfile(s.Profile), nil
	default:
		return nil, fmt.Errorf("loadgen: unknown profile %q (have flat, flash-crowd, diurnal)", name)
	}
}

func knotsToProfile(knots []scenario.ProfileKnot) traffic.RateProfile {
	out := make(traffic.RateProfile, len(knots))
	for i, k := range knots {
		out[i] = traffic.ProfilePoint{T: k.TS, Rate: k.Rate}
	}
	return out
}

// Config parameterises one load-generation run.
type Config struct {
	// Addr is the daemon address.
	Addr string
	// Profile names the load shape (see Profiles); empty means flat.
	Profile string
	// Duration is the wall-clock arrival window; the profile's time axis
	// is scaled onto it.
	Duration time.Duration
	// Rate is the peak arrival rate in requests/second: the instantaneous
	// rate is Rate scaled by profile(t)/maxProfile, so the profile's
	// spike arrives at exactly Rate.
	Rate float64
	// Conns is the number of concurrent client sessions carrying the
	// load (default 4).
	Conns int
	// Cells spreads arrivals round-robin over daemon cells [0, Cells)
	// (default 1).
	Cells int
	// Seed makes the workload — arrival times, classes, mobility,
	// holding times — bit-reproducible.
	Seed uint64
	// HoldMean is the mean holding time of an accepted call before its
	// release is scheduled (default 2s).
	HoldMean time.Duration
	// MinBUFrac is the fraction of voice/video admissions carrying a
	// degraded-admission floor ("min_bu" 2 and 5 BU respectively), to
	// exercise adaptive schemes over the wire. 0 sends none.
	MinBUFrac float64
}

func (c *Config) validate() error {
	if c.Addr == "" {
		return fmt.Errorf("loadgen: empty daemon address")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: duration %v must be positive", c.Duration)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("loadgen: rate %v must be positive", c.Rate)
	}
	if c.MinBUFrac < 0 || c.MinBUFrac > 1 {
		return fmt.Errorf("loadgen: min-BU fraction %v outside [0, 1]", c.MinBUFrac)
	}
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.Cells <= 0 {
		c.Cells = 1
	}
	if c.HoldMean <= 0 {
		c.HoldMean = 2 * time.Second
	}
	return nil
}

// arrival is one scheduled admission request, fully drawn in advance.
type arrival struct {
	at    time.Duration // offset from run start
	id    uint64
	cell  int
	class traffic.Class
	opts  bsd.AdmitOptions
	hold  time.Duration // holding time if accepted
}

// release is one pending call termination of a worker.
type release struct {
	at    time.Duration
	id    uint64
	cell  int
	class traffic.Class
}

// releaseHeap orders pending releases by due time.
type releaseHeap []release

func (h releaseHeap) Len() int           { return len(h) }
func (h releaseHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h releaseHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x any)        { *h = append(*h, x.(release)) }
func (h *releaseHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Result aggregates one run.
type Result struct {
	// Offered counts admission requests actually sent; each ends as
	// exactly one of Accepted, Rejected, Shed (the daemon's cell was at
	// its pending bound, wire code "overloaded") or Errors. A shed
	// release is retried and counted in none of them.
	Offered  int
	Accepted int
	Rejected int
	Shed     int
	// Errors counts transport failures and protocol-level error replies
	// other than overload sheds. A healthy run has zero.
	Errors int
	// Elapsed is the measured wall-clock span of the run.
	Elapsed time.Duration
	// AdmitsPerSec is Accepted divided by Elapsed: the sustained
	// admission throughput.
	AdmitsPerSec float64
	// P50 and P99 are admission-latency percentiles measured from each
	// request's scheduled send time (coordinated-omission corrected), so
	// they include any delay a slow daemon imposes on the open-loop
	// schedule.
	P50 time.Duration
	P99 time.Duration
}

// String renders the result as a one-line report.
func (r Result) String() string {
	return fmt.Sprintf(
		"offered=%d accepted=%d rejected=%d shed=%d errors=%d admits/s=%.0f p50=%s p99=%s elapsed=%s",
		r.Offered, r.Accepted, r.Rejected, r.Shed, r.Errors,
		r.AdmitsPerSec, r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.Elapsed.Round(time.Millisecond))
}

// schedule pre-draws the whole arrival plan: a thinned Poisson process
// whose envelope runs at the peak rate and whose acceptance probability
// follows the profile, time-scaled onto the run window.
func schedule(cfg Config, profile traffic.RateProfile) []arrival {
	src := rng.New(cfg.Seed)
	mix := traffic.DefaultMix()
	window := cfg.Duration.Seconds()
	span := 0.0
	if len(profile) > 0 {
		span = profile[len(profile)-1].T
	}
	maxRate := profile.MaxRate()

	var plan []arrival
	var id uint64
	for t := src.Exp(1 / cfg.Rate); t < window; t += src.Exp(1 / cfg.Rate) {
		pt := t
		if span > 0 {
			pt = t / window * span
		}
		if src.Float64()*maxRate > profile.Rate(pt) {
			continue // thinned away: the profile is below peak here
		}
		id++
		class := mix.Sample(src)
		opts := bsd.AdmitOptions{
			Cell:     int(id) % cfg.Cells,
			SpeedKmh: src.Uniform(0, 120),
			AngleDeg: src.Uniform(-180, 180),
			Handoff:  src.Bool(0.2),
		}
		if opts.Handoff {
			opts.Priority = 1
		}
		if cfg.MinBUFrac > 0 && class != traffic.Text && src.Bool(cfg.MinBUFrac) {
			// The degradation floors match internal/adapt's default
			// ladders: voice tolerates 2 BU, video 5 BU.
			if class == traffic.Voice {
				opts.MinBU = 2
			} else {
				opts.MinBU = 5
			}
		}
		plan = append(plan, arrival{
			at:    time.Duration(t * float64(time.Second)),
			id:    id,
			cell:  opts.Cell,
			class: class,
			opts:  opts,
			hold:  time.Duration(src.Exp(float64(cfg.HoldMean))),
		})
	}
	return plan
}

// tally carries one worker's counts back to the aggregator.
type tally struct {
	offered, accepted, rejected, shed, errors int
	latencies                                 []time.Duration
}

// Run executes one open-loop load-generation run against a live daemon
// and reports the aggregate. The workload is drawn entirely from
// cfg.Seed before the first byte is sent, so identical configs offer
// identical load.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	name := cfg.Profile
	if name == "" {
		name = "flat"
	}
	profile, err := ProfileByName(name)
	if err != nil {
		return Result{}, err
	}
	plan := schedule(cfg, profile)
	if len(plan) == 0 {
		return Result{}, fmt.Errorf("loadgen: schedule is empty (rate %v over %v)", cfg.Rate, cfg.Duration)
	}

	// Round-robin the arrival stream over the worker sessions so every
	// worker's sub-schedule keeps the profile's shape.
	shards := make([][]arrival, cfg.Conns)
	for i, a := range plan {
		w := i % cfg.Conns
		shards[w] = append(shards[w], a)
	}

	var (
		mu    sync.Mutex
		sum   tally
		wg    sync.WaitGroup
		start = time.Now()
	)
	for w := 0; w < cfg.Conns; w++ {
		if len(shards[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(mine []arrival) {
			defer wg.Done()
			t := runWorker(cfg.Addr, mine, start)
			mu.Lock()
			sum.offered += t.offered
			sum.accepted += t.accepted
			sum.rejected += t.rejected
			sum.shed += t.shed
			sum.errors += t.errors
			sum.latencies = append(sum.latencies, t.latencies...)
			mu.Unlock()
		}(shards[w])
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := Result{
		Offered:  sum.offered,
		Accepted: sum.accepted,
		Rejected: sum.rejected,
		Shed:     sum.shed,
		Errors:   sum.errors,
		Elapsed:  elapsed,
	}
	if elapsed > 0 {
		res.AdmitsPerSec = float64(res.Accepted) / elapsed.Seconds()
	}
	sort.Slice(sum.latencies, func(i, j int) bool { return sum.latencies[i] < sum.latencies[j] })
	res.P50 = percentile(sum.latencies, 0.50)
	res.P99 = percentile(sum.latencies, 0.99)
	return res, nil
}

// percentile reads the q-th quantile from an ascending latency slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// runWorker replays one shard of the schedule over a single session:
// sleep to each event's scheduled offset, send, account. Releases of
// accepted calls are interleaved at their own scheduled times.
func runWorker(addr string, mine []arrival, start time.Time) tally {
	var t tally
	cl, err := bsd.Dial(addr)
	if err != nil {
		t.errors++
		return t
	}
	defer cl.Close()

	var pending releaseHeap
	i := 0
	for i < len(mine) || pending.Len() > 0 {
		// Next event: the earlier of the next arrival and the next due
		// release.
		doRelease := i >= len(mine) || (pending.Len() > 0 && pending[0].at < mine[i].at)
		var due time.Duration
		if doRelease {
			due = pending[0].at
		} else {
			due = mine[i].at
		}
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}

		if doRelease {
			rel := heap.Pop(&pending).(release)
			resp, err := cl.ReleaseIn(rel.cell, rel.id, rel.class.String())
			if err != nil {
				// Transport gone: the daemon auto-releases this
				// session's remaining grants on disconnect.
				t.errors++
				return t
			}
			switch {
			case resp.OK:
			case resp.Code == wire.CodeOverloaded:
				// Shed release: retry shortly so the call does not leak
				// for the rest of the run. Shed counts admits only (the
				// daemon's facs_shed_total counts both).
				rel.at += 10 * time.Millisecond
				heap.Push(&pending, rel)
			default:
				t.errors++
			}
			continue
		}

		a := mine[i]
		i++
		t.offered++
		resp, err := cl.AdmitWith(a.id, a.class.String(), a.opts)
		if err != nil {
			t.errors++
			return t
		}
		// Latency from the *scheduled* offset, not the actual send: a
		// request stuck behind a slow round trip is charged its wait.
		t.latencies = append(t.latencies, time.Since(start)-a.at)
		switch {
		case resp.OK && resp.Accept:
			t.accepted++
			heap.Push(&pending, release{at: a.at + a.hold, id: a.id, cell: a.cell, class: a.class})
		case resp.OK:
			t.rejected++
		case resp.Code == wire.CodeOverloaded:
			t.shed++
		default:
			t.errors++
		}
	}
	return t
}
