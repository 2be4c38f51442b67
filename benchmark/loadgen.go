package main

import (
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"facsp/internal/bsd"
	"facsp/internal/rng"
	"facsp/internal/traffic"
	"facsp/internal/wire"
)

// The load generator drives a live daemon open-loop: every admission is
// drawn from the seed before the phase starts and is due at a fixed offset,
// whatever the daemon does. Each connection is one synchronous bsd.Client
// session, so a request whose session is still waiting on an earlier reply
// at its due time queues behind it.
//
// Latency is slack-corrected. A request whose session was busy at its due
// time is timed from the due time, so the wait a slow reply imposes on the
// requests behind it is charged (no coordinated omission). Any other
// request is timed from its actual send, so the pacer's own timer slack is
// not charged to the daemon.

// loadMeanBU is the mean bandwidth of the paper's 70/20/10 class mix.
var loadMeanBU = traffic.DefaultMix().MeanBandwidth()

// request is one scheduled admission.
type request struct {
	at    time.Duration // due offset from the phase start
	id    uint64
	class traffic.Class
	opts  bsd.AdmitOptions
	hold  time.Duration // holding time if accepted
}

// loadSpec fixes the traffic of a daemon: arrivals spread over cells by
// weight, offered at a load factor of the cells' capacity at every rate.
type loadSpec struct {
	weights    []float64 // per-cell arrival weights
	capacityBU float64   // per-cell capacity
	loadFactor float64   // offered Erlangs per cell over capacity, averaged over cells
}

// holdMean is the mean holding time that offers each cell loadFactor times
// its capacity at rate admits/s: rate/cells arrivals/s per cell times the
// holding time times the mean bandwidth.
func (l loadSpec) holdMean(rate float64) time.Duration {
	cells := float64(len(l.weights))
	sec := l.loadFactor * l.capacityBU * cells / (loadMeanBU * rate)
	return time.Duration(sec * float64(time.Second))
}

// draw draws one admission: class from the paper's mix, cell by weight,
// 20% handoffs at priority 1, speed U(0,120), angle U(-180,180), and an
// exponential holding time of mean hold.
func (l loadSpec) draw(src *rng.Source, id uint64, hold float64) request {
	r := request{
		id:    id,
		class: traffic.DefaultMix().Sample(src),
		opts: bsd.AdmitOptions{
			Cell:     src.Pick(l.weights),
			SpeedKmh: src.Uniform(0, 120),
			AngleDeg: src.Uniform(-180, 180),
			Handoff:  src.Bool(0.2),
		},
	}
	if r.opts.Handoff {
		r.opts.Priority = 1
	}
	r.hold = time.Duration(src.Exp(hold) * float64(time.Second))
	return r
}

// schedule draws a Poisson arrival plan at rate over d. IDs start after
// firstID so phases never reuse one.
func (l loadSpec) schedule(seed uint64, rate float64, d time.Duration, firstID uint64) []request {
	src := rng.New(seed)
	hold := l.holdMean(rate).Seconds()
	window := d.Seconds()
	plan := make([]request, 0, int(rate*window*1.05)+16)
	id := firstID
	for t := src.Exp(1 / rate); t < window; t += src.Exp(1 / rate) {
		id++
		r := l.draw(src, id, hold)
		r.at = time.Duration(t * float64(time.Second))
		plan = append(plan, r)
	}
	return plan
}

// sample is one answered admission, in nanoseconds since the phase start.
type sample struct {
	due, sent, done int64
	busy            bool // the session was still busy at the due time
	cell            int
	speed, angle    float64
}

// latency is the slack-corrected admission latency.
func (s sample) latency() int64 {
	if s.busy {
		return s.done - s.due
	}
	return s.done - s.sent
}

// tally counts the outcomes of one phase. Admit and release outcomes are
// counted apart, so offered = accepted + rejected + shed + errors always
// holds for admits.
type tally struct {
	offered, accepted, rejected, shed, errors int
	releases, releaseShed, releaseErrors      int
	badOccupancy                              int   // replies with occupancy outside [0, capacity]
	outcomes                                  []int // [cell*3+k]: k = 0 accept, 1 block, 2 drop
	firstProblem                              string
}

func (t *tally) add(o *tally) {
	t.offered += o.offered
	t.accepted += o.accepted
	t.rejected += o.rejected
	t.shed += o.shed
	t.errors += o.errors
	t.releases += o.releases
	t.releaseShed += o.releaseShed
	t.releaseErrors += o.releaseErrors
	t.badOccupancy += o.badOccupancy
	if t.outcomes == nil {
		t.outcomes = make([]int, len(o.outcomes))
	}
	for i, v := range o.outcomes {
		t.outcomes[i] += v
	}
	if t.firstProblem == "" {
		t.firstProblem = o.firstProblem
	}
}

func (t *tally) problem(format string, args ...any) {
	if t.firstProblem == "" {
		t.firstProblem = fmt.Sprintf(format, args...)
	}
}

// check validates one reply's cell state.
func (t *tally) check(resp wire.Response, cell int) {
	if resp.Cell != cell || resp.Occupancy < 0 || resp.Occupancy > resp.Capacity {
		t.badOccupancy++
		t.problem("cell %d reply reports cell %d occupancy %v of capacity %v", cell, resp.Cell, resp.Occupancy, resp.Capacity)
	}
}

// phaseResult is one open-loop phase over every connection.
type phaseResult struct {
	tally
	samples  []sample
	start    time.Time
	lateSent int // admits sent more than onTime after their due time
}

// onTime is how late a send may be and still count as on schedule.
const onTime = time.Millisecond

// release is one pending call termination of a connection.
type release struct {
	at   time.Duration
	id   uint64
	cell int
	cls  traffic.Class
}

type releaseHeap []release

func (h releaseHeap) Len() int           { return len(h) }
func (h releaseHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h releaseHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x any)        { *h = append(*h, x.(release)) }
func (h *releaseHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// session is a synchronous wire-protocol client: *bsd.Client over TCP,
// or pipeClient over an in-memory pipe.
type session interface {
	AdmitWith(id uint64, class string, o bsd.AdmitOptions) (wire.Response, error)
	ReleaseIn(cell int, id uint64, class string) (wire.Response, error)
	Close() error
}

// conn is one client session and the releases it still owes.
type conn struct {
	cl      session
	pace    *pacer
	pending releaseHeap
	cells   int
	// keep records the first maxKept admit exchanges for the codec replay.
	keep bool
	kept []exchange
}

// newConn wraps a session; it takes ownership of cl.
func newConn(cl session, cells int) (*conn, error) {
	p, err := newPacer()
	if err != nil {
		cl.Close()
		return nil, err
	}
	return &conn{cl: cl, pace: p, cells: cells}, nil
}

func (c *conn) close() {
	c.cl.Close()
	c.pace.close()
}

// exchange is one admit request and its reply.
type exchange struct {
	req  wire.Request
	resp wire.Response
}

const maxKept = 4000

// runPhase replays plan over conns open-loop, arrival i on connection
// i mod len(conns). Releases still due after a connection's last arrival
// are sent at once, so every phase starts and ends with empty cells.
func runPhase(conns []*conn, plan []request) phaseResult {
	shards := make([][]request, len(conns))
	for i, r := range plan {
		shards[i%len(conns)] = append(shards[i%len(conns)], r)
	}
	results := make([]phaseResult, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = c.run(shards[i], start)
		}()
	}
	wg.Wait()
	out := phaseResult{start: start}
	for i := range results {
		out.tally.add(&results[i].tally)
		out.samples = append(out.samples, results[i].samples...)
		out.lateSent += results[i].lateSent
	}
	return out
}

// run replays one connection's share of a phase.
func (c *conn) run(mine []request, start time.Time) phaseResult {
	res := phaseResult{samples: make([]sample, 0, len(mine))}
	res.outcomes = make([]int, 3*c.cells)
	// flight holds this session's round trips in order, to tell whether a
	// request's due time fell inside one.
	var flight [][2]int64
	busyAt := func(t int64) bool {
		for k := len(flight) - 1; k >= 0 && flight[k][1] > t; k-- {
			if flight[k][0] <= t {
				return true
			}
		}
		return false
	}
	for i := 0; i < len(mine); {
		doRelease := c.pending.Len() > 0 && c.pending[0].at <= mine[i].at
		var due time.Duration
		if doRelease {
			due = c.pending[0].at
		} else {
			due = mine[i].at
		}
		if err := c.pace.waitUntil(start.Add(due)); err != nil {
			res.errors++
			res.problem("pacer: %v", err)
			break
		}
		if doRelease {
			rel := heap.Pop(&c.pending).(release)
			sent := int64(time.Since(start))
			c.release(&res.tally, rel)
			flight = append(flight, [2]int64{sent, int64(time.Since(start))})
			continue
		}
		r := mine[i]
		i++
		s := sample{due: int64(r.at), cell: r.opts.Cell, speed: r.opts.SpeedKmh, angle: r.opts.AngleDeg}
		s.busy = busyAt(s.due)
		s.sent = int64(time.Since(start))
		if s.sent-s.due > int64(onTime) {
			res.lateSent++
		}
		resp, err := c.cl.AdmitWith(r.id, r.class.String(), r.opts)
		s.done = int64(time.Since(start))
		flight = append(flight, [2]int64{s.sent, s.done})
		if !c.account(&res.tally, r, resp, err) {
			break
		}
		if resp.OK {
			res.samples = append(res.samples, s)
		}
	}
	c.drain(&res.tally)
	return res
}

// account counts the outcome of admission r. An accepted call is queued
// for release r.hold after r.at. It returns false when the session failed.
func (c *conn) account(t *tally, r request, resp wire.Response, err error) bool {
	t.offered++
	if err != nil {
		t.errors++
		t.problem("admit %d: %v", r.id, err)
		return false
	}
	switch {
	case resp.OK:
		t.check(resp, r.opts.Cell)
		if c.keep && len(c.kept) < maxKept {
			c.kept = append(c.kept, exchange{admitRequest(r.id, r.class.String(), r.opts), resp})
		}
		k := 0
		switch {
		case resp.Accept:
			t.accepted++
			heap.Push(&c.pending, release{at: r.at + r.hold, id: r.id, cell: r.opts.Cell, cls: r.class})
		case r.opts.Handoff:
			t.rejected++
			k = 2
		default:
			t.rejected++
			k = 1
		}
		t.outcomes[3*r.opts.Cell+k]++
	case resp.Code == wire.CodeOverloaded:
		t.shed++
	default:
		t.errors++
		t.problem("admit %d: %s", r.id, resp.Err)
	}
	return true
}

// release sends one release. A shed release is retried until it lands, so
// the call never leaks; every attempt is counted apart from admits.
func (c *conn) release(t *tally, rel release) {
	for {
		t.releases++
		resp, err := c.cl.ReleaseIn(rel.cell, rel.id, rel.cls.String())
		switch {
		case err != nil:
			t.releaseErrors++
			t.problem("release %d: %v", rel.id, err)
			return
		case resp.OK:
			t.check(resp, rel.cell)
			return
		case resp.Code == wire.CodeOverloaded:
			t.releaseShed++
			time.Sleep(time.Millisecond)
		default:
			t.releaseErrors++
			t.problem("release %d: %s", rel.id, resp.Err)
			return
		}
	}
}

// drain sends every pending release at once.
func (c *conn) drain(t *tally) {
	for c.pending.Len() > 0 {
		c.release(t, heap.Pop(&c.pending).(release))
	}
}

// pacer waits for due times on a timerfd read through the runtime's
// network poller. The waiting goroutine gives its P back, as it would in
// time.Sleep, so the daemon under test keeps both processors; but it wakes
// within tens of microseconds, where time.Sleep rounds an idle process's
// wake-ups up to the poller's millisecond granularity. A nanosleep system
// call is precise too, but holds the P while it sleeps.
type pacer struct {
	fd uintptr
	f  *os.File
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// waitUntil blocks until t.
func (p *pacer) waitUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }

// percentile returns the nearest-rank q-quantile of ascending values, and
// false when fewer than minBeyond samples lie beyond it, so a tail figure
// is never read off a handful of samples.
func percentile(sorted []int64, q float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// minBeyond is the fewest samples that must lie beyond a reported
// percentile.
const minBeyond = 10

func sortInt64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// codecStats is the wire layer's cost per admission round trip: a request
// and a reply each encoded once and decoded once.
type codecStats struct {
	encodeNs, decodeNs, bytes, allocs float64
}

// replayCodec replays the admit exchanges the connections kept through
// wire.NewEncoder and wire.NewDecoder over an in-memory buffer.
func replayCodec(conns []*conn) (codecStats, error) {
	var ex []exchange
	for _, c := range conns {
		ex = append(ex, c.kept...)
		c.kept = nil
	}
	if len(ex) == 0 {
		return codecStats{}, fmt.Errorf("codec replay: no exchanges kept")
	}
	var st codecStats
	before := readRuntime()
	for pass := 0; pass < 2; pass++ {
		var buf bytes.Buffer
		enc, dec := wire.NewEncoder(&buf), wire.NewDecoder(&buf)
		t0 := time.Now()
		for _, e := range ex {
			var err error
			if pass == 0 {
				err = enc.Encode(e.req)
			} else {
				err = enc.Encode(e.resp)
			}
			if err != nil {
				return codecStats{}, err
			}
		}
		st.encodeNs += float64(time.Since(t0))
		st.bytes += float64(buf.Len())
		t0 = time.Now()
		for range ex {
			var err error
			if pass == 0 {
				var r wire.Request
				err = dec.Decode(&r)
			} else {
				var r wire.Response
				err = dec.Decode(&r)
			}
			if err != nil {
				return codecStats{}, err
			}
		}
		st.decodeNs += float64(time.Since(t0))
	}
	after := readRuntime()
	n := float64(len(ex))
	st.encodeNs /= n
	st.decodeNs /= n
	st.bytes /= n
	st.allocs = float64(after.allocs-before.allocs) / n
	return st, nil
}

// closedResult is one closed-loop phase.
type closedResult struct {
	tally
	perSecond []int // admits answered in each whole second, over every session
}

// runClosed drives every session back to back for d: each sends its next
// admit as soon as the previous reply arrives. An accepted call is released
// once its session has sent as many further admits as its holding time
// spans, so every cell is offered l.loadFactor times its capacity whatever
// rate the daemon sustains. Session i draws from seed's substream i and
// numbers its calls firstID+1+i, firstID+1+i+len(conns), ...
//
// The release queue's clock here counts the session's admits, one second
// of request time per admit.
func runClosed(conns []*conn, l loadSpec, seed uint64, d time.Duration, firstID uint64) closedResult {
	// A call holding H seconds at a total rate R spans H*R/len(conns)
	// admits of its own session; holdMean(R)*R does not depend on R.
	holdAdmits := l.holdMean(1).Seconds() / float64(len(conns))
	results := make([]closedResult, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[i]
			res.outcomes = make([]int, 3*c.cells)
			res.perSecond = make([]int, int(d/time.Second))
			defer c.drain(&res.tally)
			src := rng.New(rng.Substream(seed, uint64(i)))
			id := firstID + 1 + uint64(i)
			for now := time.Duration(0); time.Now().Before(deadline); now += time.Second {
				for c.pending.Len() > 0 && c.pending[0].at <= now {
					c.release(&res.tally, heap.Pop(&c.pending).(release))
				}
				r := l.draw(src, id, holdAdmits)
				id += uint64(len(conns))
				r.at = now
				resp, err := c.cl.AdmitWith(r.id, r.class.String(), r.opts)
				if !c.account(&res.tally, r, resp, err) {
					return
				}
				if sec := int(time.Since(start) / time.Second); sec < len(res.perSecond) {
					res.perSecond[sec]++
				}
			}
		}()
	}
	wg.Wait()
	out := closedResult{perSecond: make([]int, int(d/time.Second))}
	for i := range results {
		out.tally.add(&results[i].tally)
		for s, n := range results[i].perSecond {
			out.perSecond[s] += n
		}
	}
	return out
}
