package main

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"facsp"
	"facsp/internal/bsd"
	"facsp/internal/cac"
	"facsp/internal/metrics"
	"facsp/internal/rng"
	"facsp/internal/traffic"
	"facsp/internal/wire"
)

// The serving workloads run a 19-cell FACS-P daemon in process on loopback
// TCP and drive it from two client sessions: open-loop at a fixed rate for
// latency, then closed-loop for capacity. Arrivals are Poisson over the
// cells with the paper's class mix, 20% handoffs at priority 1, speed
// U(0,120) and angle U(-180,180). Holding times scale with the rate, so
// every cell is offered 1.2x its capacity in Erlangs in both phases and
// blocking stays comparable between them.

const (
	serveCells      = 19
	serveCapacityBU = 40
	serveConns      = 2
	serveLoadFactor = 1.2
	// closedWarmUp is the unmeasured start of the closed-loop phase.
	closedWarmUp = 2 * time.Second
	// serveSpanEvery keeps the spans of one traced round trip in this many
	// for the spans file; the layer table uses them all.
	serveSpanEvery = 8
)

// serveSpec is one serving workload.
type serveSpec struct {
	name    string
	surface int     // decision-surface resolution; 0 is exact inference
	hot     float64 // arrival weight of cell 0; the other cells weigh 1
	rate    float64 // admits/s of the fixed-rate phase
}

var (
	// serveSurface: inference is about a microsecond of a ~30µs round
	// trip, so tcp, wire and bsd do nearly all the work.
	serveSurface = serveSpec{name: "serve-surface", surface: 33, hot: 1, rate: 8000}
	// serveExactHot: facs-server's default exact inference, with a third of
	// the arrivals on one cell, where most are rejected.
	serveExactHot = serveSpec{name: "serve-exact-hot", hot: 8, rate: 4000}
)

// daemon is a live in-process bsd.Server.
type daemon struct {
	srv  *bsd.Server
	done chan error
}

// newDaemon builds one FACS-P controller per cell, wraps each in wrap when
// it is non-nil, and serves them on ln.
func newDaemon(spec serveSpec, ln net.Listener, wrap func(int, cac.Controller) cac.Controller) (*daemon, error) {
	cfg := facsp.DefaultPConfig()
	if spec.surface > 0 {
		cfg = facsp.WithSurfaceCache(spec.surface)
	}
	cfg.Capacity = serveCapacityBU
	ctrls := make([]cac.Controller, serveCells)
	for i := range ctrls {
		c, err := facsp.NewFACSP(cfg)
		if err != nil {
			return nil, err
		}
		ctrls[i] = c
		if wrap != nil {
			ctrls[i] = wrap(i, c)
		}
	}
	srv, err := bsd.New(bsd.Config{Cells: ctrls})
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ln) }()
	return d, nil
}

// close stops the daemon and waits until it has drained.
func (d *daemon) close() error {
	err := d.srv.Close()
	if serr := <-d.done; !errors.Is(serr, net.ErrClosed) {
		return fmt.Errorf("serve: %w", serr)
	}
	return err
}

// serveRun is a set-up serving workload.
type serveRun struct {
	spec   serveSpec
	seed   uint64
	load   loadSpec
	ln     net.Listener
	d      *daemon
	rec    *recorder // nil when untraced
	conns  []*conn
	total  tally // every phase so far
	phases uint64
	nextID uint64
	// closedAccept is the accepted share of the last closed-loop phase.
	closedAccept float64
}

func newServe(spec serveSpec, seed uint64, traced bool) (*serveRun, error) {
	if !traced {
		return startServe(spec, seed, nil, nil)
	}
	rec := newRecorder()
	return startServe(spec, seed, rec, rec.wrapController)
}

// startServe sets a serving workload up with each cell's controller passed
// through wrap when it is non-nil; rec receives the spans of a traced run.
func startServe(spec serveSpec, seed uint64, rec *recorder, wrap func(int, cac.Controller) cac.Controller) (*serveRun, error) {
	weights := make([]float64, serveCells)
	for i := range weights {
		weights[i] = 1
	}
	weights[0] = spec.hot
	s := &serveRun{
		spec: spec,
		seed: seed,
		load: loadSpec{weights: weights, capacityBU: serveCapacityBU, loadFactor: serveLoadFactor},
		rec:  rec,
	}
	s.total.outcomes = make([]int, 3*serveCells)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if s.d, err = newDaemon(spec, ln, wrap); err != nil {
		ln.Close()
		return nil, err
	}
	s.ln = ln
	for i := 0; i < serveConns; i++ {
		cl, err := bsd.Dial(ln.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		c, err := newConn(cl, serveCells)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

func (r *recorder) wrapController(cell int, c cac.Controller) cac.Controller {
	return &tracedController{Controller: c, cell: cell, rec: r}
}

func (s *serveRun) close() error {
	for _, c := range s.conns {
		c.close()
	}
	if s.d == nil {
		return nil
	}
	return s.d.close()
}

// phase runs one open-loop phase at rate for d over the workload's
// sessions, drawing its schedule from the seed and the phase number.
func (s *serveRun) phase(rate float64, d time.Duration) (phaseResult, []request) {
	s.phases++
	plan := s.load.schedule(rng.Substream(s.seed, s.phases), rate, d, s.nextID)
	s.nextID += uint64(len(plan))
	res := runPhase(s.conns, plan)
	s.total.add(&res.tally)
	return res, plan
}

func (s *serveRun) measure(d time.Duration) (*result, error) {
	s.phase(s.spec.rate, warmUpFor(d))
	fixed, _ := s.phase(s.spec.rate, d/2)
	p50, p99 := fixedLatency(fixed.samples)
	capacity := s.saturate(closedWarmUp, max(d/4, time.Second))
	res := &result{metrics: map[string]metric{
		"latency_p50_us":   {float64(p50) / 1e3, "us"},
		"latency_p99_us":   {float64(p99) / 1e3, "us"},
		"throughput_per_s": {capacity, "1/s"},
	}}
	res.notes = append(res.notes,
		fmt.Sprintf("fixed phase: %d admits at %.0f/s, accepted %.3f; p50 over all, p99 the median of %v windows' p99s",
			len(fixed.samples), s.spec.rate, float64(fixed.accepted)/float64(max(fixed.offered, 1)), p99Window),
		fmt.Sprintf("capacity: the median second of %v closed-loop after %v unmeasured, accepted %.3f",
			max(d/4, time.Second), closedWarmUp, s.closedAccept))
	s.finish(res)
	return res, nil
}

// p99Window is the window the serving p99 is taken over: at the fixed rates
// it holds at least 2000 samples, so 20 lie beyond each window's p99.
const p99Window = 500 * time.Millisecond

// fixedLatency returns the p50 of a phase's latencies and the median of its
// per-window p99s.
func fixedLatency(samples []sample) (p50, p99 int64) {
	all := make([]int64, len(samples))
	for i, x := range samples {
		all[i] = x.latency()
	}
	sortInt64(all)
	p50, _ = percentile(all, 0.50)
	return p50, windowedP99(samples, p99Window)
}

// windowedP99 is the median of the p99s of consecutive windows of the
// given length, by due time, so one garbage-collection pause or one burst
// of load from another tenant moves it little. Windows with too few
// samples for a p99 are skipped; with none, the p99 of all samples stands
// in.
func windowedP99(samples []sample, window time.Duration) int64 {
	all := make([]int64, len(samples))
	per := map[int64][]int64{}
	for i, x := range samples {
		all[i] = x.latency()
		w := x.due / int64(window)
		per[w] = append(per[w], all[i])
	}
	var p99s []int64
	for _, v := range per {
		sortInt64(v)
		if p, ok := percentile(v, 0.99); ok {
			p99s = append(p99s, p)
		}
	}
	if len(p99s) == 0 {
		sortInt64(all)
		p, _ := percentile(all, 0.99)
		return p
	}
	sortInt64(p99s)
	return p99s[len(p99s)/2]
}

// saturate runs one closed-loop phase: a warm-up of warm, then d measured,
// and returns the median of the measured seconds' admission throughput.
// The first seconds at full speed run slow while the heap and the runtime
// adjust to the new rate, so they are not measured.
func (s *serveRun) saturate(warm, d time.Duration) float64 {
	s.phases++
	res := runClosed(s.conns, s.load, rng.Substream(s.seed, s.phases), warm+d, s.nextID)
	s.nextID += 1 << 40
	s.total.add(&res.tally)
	s.closedAccept = float64(res.accepted) / float64(max(res.offered, 1))
	per := append([]int(nil), res.perSecond[warm/time.Second:]...)
	sort.Ints(per)
	return float64(per[len(per)/2])
}

// finish checks the daemon's state after every phase has drained: no
// operation failed, every reply's occupancy was within capacity, every
// cell is back at 0 BU and the daemon's own counters match the client's
// tallies. It fills the attempted and failed counts.
func (s *serveRun) finish(res *result) {
	t := &s.total
	res.attempted = t.offered + t.releases
	res.failed = t.shed + t.errors + t.releaseShed + t.releaseErrors
	if t.firstProblem != "" {
		res.problem("%s", t.firstProblem)
	}
	if t.offered != t.accepted+t.rejected+t.shed+t.errors {
		res.problem("offered %d != accepted %d + rejected %d + shed %d + errors %d", t.offered, t.accepted, t.rejected, t.shed, t.errors)
	}
	if t.badOccupancy > 0 {
		res.problem("%d replies reported occupancy outside [0, capacity]", t.badOccupancy)
	}
	if n := s.d.srv.Shed(); n > 0 {
		res.problem("daemon shed %d requests", n)
	}
	cl, err := bsd.Dial(s.ln.Addr().String())
	if err != nil {
		res.problem("status session: %v", err)
		return
	}
	defer cl.Close()
	for cell := 0; cell < serveCells; cell++ {
		st, err := cl.StatusIn(cell)
		if err != nil || !st.OK || st.Occupancy != 0 {
			res.problem("cell %d after drain: occupancy %v ok=%v err=%v", cell, st.Occupancy, st.OK, err)
		}
	}
	if m := s.counterMismatch(); m > 0 {
		res.problem("daemon counters disagree with client tallies by %d", m)
	}
}

// counterMismatch compares the daemon's per-cell accept, block and drop
// counters (summed over classes) with the client's tallies.
func (s *serveRun) counterMismatch() int {
	reg := s.d.srv.Metrics()
	off := 0
	for cell := 0; cell < serveCells; cell++ {
		var got [3]uint64
		for _, cls := range traffic.Classes() {
			got[0] += reg.CounterValue(cell, metrics.Admits(cls))
			got[1] += reg.CounterValue(cell, metrics.Blocks(cls))
			got[2] += reg.CounterValue(cell, metrics.Drops(cls))
		}
		for k := 0; k < 3; k++ {
			diff := int(got[k]) - s.total.outcomes[3*cell+k]
			off += max(diff, -diff)
		}
	}
	return off
}

// trace measures an untraced pass, then a traced pass, then replays the
// traced pass's schedule over an in-memory pipe and its messages through
// the codec, and breaks the mean round trip into layers.
func (s *serveRun) trace(d time.Duration) (*result, error) {
	s.phase(s.spec.rate, warmUpFor(d))
	before := readRuntime()
	plain, _ := s.phase(s.spec.rate, d/4)
	after := readRuntime()

	for _, c := range s.conns {
		c.keep = true
	}
	s.rec.on.Store(true)
	traced, plan := s.phase(s.spec.rate, d/2)
	s.rec.on.Store(false)
	for _, c := range s.conns {
		c.keep = false
	}
	coreSpans := s.rec.take()

	head := plan[:sort.Search(len(plan), func(i int) bool { return plan[i].at >= d/4 })]
	pipe, err := s.pipePhase(head, d/4, traced.samples)
	if err != nil {
		return nil, err
	}
	codec, err := replayCodec(s.conns)
	if err != nil {
		return nil, err
	}

	res := &result{metrics: runtimeMetrics(before, after, plain.offered)}
	t := &layerTable{workload: s.spec.name, op: "admission round trip (send to reply)"}
	res.table = t

	// Match each controller span to the round trip that caused it.
	byKey := make(map[matchKey]int, len(coreSpans))
	var releases []int64
	for i, sp := range coreSpans {
		if sp.Name == "core.admit" {
			byKey[sp.key] = i
		} else {
			releases = append(releases, sp.dur())
		}
	}
	offset := int64(traced.start.Sub(s.rec.epoch))
	var rtSum, coreSum, preSum, postSum, waitSum float64
	var rt, admits []int64
	matched := 0
	for i, x := range traced.samples {
		rt = append(rt, x.done-x.sent)
		waitSum += float64(x.latency() - (x.done - x.sent))
		j, ok := byKey[keyOf(x.cell, x.speed, x.angle)]
		if !ok {
			continue
		}
		matched++
		c := coreSpans[j]
		rtSum += float64(x.done - x.sent)
		coreSum += float64(c.dur())
		preSum += float64(c.Start - (x.sent + offset))
		postSum += float64(x.done + offset - c.End)
		admits = append(admits, c.dur())
		if i%serveSpanEvery != 0 {
			continue
		}
		id := uint64(i + 1)
		res.spans = append(res.spans,
			span{Trace: id, ID: 1, Name: "client.roundtrip", Start: x.sent + offset, End: x.done + offset},
			span{Trace: id, ID: 2, Parent: 1, Name: "core.admit", Start: c.Start, End: c.End})
		if x.busy {
			res.spans = append(res.spans, span{Trace: id, ID: 3, Parent: 1, Name: "loadgen.wait", Start: x.due + offset, End: x.sent + offset})
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("%s: no controller span matched a round trip", s.spec.name)
	}
	n := float64(matched)
	t.totalNs = rtSum / n
	coreNs := coreSum / n
	tcpNs := pipe.tcpMean - pipe.pipeMean
	wireNs := codec.encodeNs + codec.decodeNs
	t.rows = []layerRow{
		{"tcp", tcpNs, "loopback minus net.Pipe mean round trip, same schedule"},
		{"wire", wireNs, "codec replay of the run's messages: 2 encodes + 2 decodes"},
		{"bsd", t.totalNs - coreNs - tcpNs - wireNs, "remainder: session, grant table, cell queue hop"},
		{"core", coreNs, "decorator around each cac.Controller"},
	}
	sortInt64(rt)
	sortInt64(admits)
	sortInt64(releases)
	slack, busy := slackStats(traced.samples)
	rtP50, _ := percentile(rt, 0.5)
	admitP50, _ := percentile(admits, 0.5)
	releaseP50, _ := percentile(releases, 0.5)
	s50, _ := percentile(slack, 0.5)
	s99, _ := percentile(slack, 0.99)
	plainRT := make([]int64, len(plain.samples))
	for i, x := range plain.samples {
		plainRT[i] = x.done - x.sent
	}
	sortInt64(plainRT)
	plainP50, _ := percentile(plainRT, 0.5)
	t.notes = []string{
		fmt.Sprintf("matched %d of %d round trips to controller spans", matched, len(traced.samples)),
		fmt.Sprintf("loadgen: slack p50 %.1fµs p99 %.1fµs, busy at due %.3f, sent on time %.4f", float64(s50)/1e3, float64(s99)/1e3, busy, 1-float64(traced.lateSent)/float64(max(traced.offered, 1))),
		fmt.Sprintf("tcp: rtt overhead p50 %.1fµs (loopback p50 %.1fµs, pipe p50 %.1fµs)", float64(pipe.tcpP50-pipe.pipeP50)/1e3, float64(pipe.tcpP50)/1e3, float64(pipe.pipeP50)/1e3),
		fmt.Sprintf("wire: encode %.0f ns, decode %.0f ns, %.0f bytes and %.1f allocs per round trip", codec.encodeNs, codec.decodeNs, codec.bytes, codec.allocs),
		fmt.Sprintf("bsd: send to controller %.1fµs, controller to reply %.1fµs, shed %d, counter mismatch %d", preSum/n/1e3, postSum/n/1e3, s.d.srv.Shed(), s.counterMismatch()),
		fmt.Sprintf("core: admit p50 %d ns, release p50 %d ns, accept ratio %.3f", admitP50, releaseP50, float64(traced.accepted)/float64(max(traced.offered, 1))),
		fmt.Sprintf("round trip p50 %.1fµs traced vs %.1fµs untraced", float64(rtP50)/1e3, float64(plainP50)/1e3),
	}
	res.metrics["driver.ns_per_op"] = metric{waitSum / float64(len(traced.samples)), "ns"}
	res.metrics["host.ns_per_op"] = metric{t.totalNs - coreNs, "ns"}
	res.metrics["core.ns_per_op"] = metric{coreNs, "ns"}
	res.metrics["core.admit_ns"] = metric{float64(admitP50), "ns"}
	res.metrics["core.release_ns"] = metric{float64(releaseP50), "ns"}
	res.metrics["trace.overhead_frac"] = metric{float64(rtP50)/float64(plainP50) - 1, "ratio"}
	s.finish(res)
	return res, nil
}

// slackStats returns the ascending pacer slack of the requests whose
// session was idle at their due time, and the share that found it busy.
func slackStats(samples []sample) ([]int64, float64) {
	var slack []int64
	busy := 0
	for _, x := range samples {
		if x.busy {
			busy++
		} else {
			slack = append(slack, x.sent-x.due)
		}
	}
	sortInt64(slack)
	return slack, float64(busy) / float64(max(len(samples), 1))
}

// pipeResult compares the round trips of one schedule over loopback TCP
// and over an in-memory pipe.
type pipeResult struct {
	tcpMean, pipeMean float64
	tcpP50, pipeP50   int64
}

// pipePhase replays plan, the head of the traced pass, against a second
// daemon served over net.Pipe, traced the same way, and compares its round
// trips with the traced pass's over the same requests.
func (s *serveRun) pipePhase(plan []request, window time.Duration, traced []sample) (pipeResult, error) {
	ln := newPipeListener()
	rec := newRecorder()
	d, err := newDaemon(s.spec, ln, rec.wrapController)
	if err != nil {
		return pipeResult{}, err
	}
	conns := make([]*conn, serveConns)
	for i := range conns {
		if conns[i], err = newConn(ln.dial(), serveCells); err != nil {
			d.close()
			return pipeResult{}, err
		}
	}
	rec.on.Store(true)
	res := runPhase(conns, plan)
	for _, c := range conns {
		c.close()
	}
	if err := d.close(); err != nil {
		return pipeResult{}, err
	}
	if res.shed+res.errors+res.releaseShed+res.releaseErrors > 0 {
		return pipeResult{}, fmt.Errorf("pipe replay failed: %s", res.firstProblem)
	}
	var tcp []int64
	for _, x := range traced {
		if x.due < int64(window) {
			tcp = append(tcp, x.done-x.sent)
		}
	}
	pipe := make([]int64, len(res.samples))
	for i, x := range res.samples {
		pipe[i] = x.done - x.sent
	}
	out := pipeResult{tcpMean: mean(tcp), pipeMean: mean(pipe)}
	sortInt64(tcp)
	sortInt64(pipe)
	out.tcpP50, _ = percentile(tcp, 0.5)
	out.pipeP50, _ = percentile(pipe, 0.5)
	return out, nil
}

func mean(v []int64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(max(len(v), 1))
}

// pipeListener hands the daemon the server ends of in-memory pipes.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial connects a client session over a new pipe.
func (l *pipeListener) dial() *pipeClient {
	client, server := net.Pipe()
	l.conns <- server
	return &pipeClient{c: client, enc: wire.NewEncoder(client), dec: wire.NewDecoder(client)}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeClient speaks the wire protocol over a net.Pipe, sending the same
// requests bsd.Client does.
type pipeClient struct {
	c   net.Conn
	enc *wire.Encoder
	dec *wire.Decoder
}

func (p *pipeClient) roundTrip(req wire.Request) (wire.Response, error) {
	if err := p.enc.Encode(req); err != nil {
		return wire.Response{}, err
	}
	var resp wire.Response
	err := p.dec.Decode(&resp)
	return resp, err
}

func (p *pipeClient) AdmitWith(id uint64, class string, o bsd.AdmitOptions) (wire.Response, error) {
	return p.roundTrip(admitRequest(id, class, o))
}

func (p *pipeClient) ReleaseIn(cell int, id uint64, class string) (wire.Response, error) {
	return p.roundTrip(wire.Request{V: wire.Version, Op: wire.OpRelease, ID: id, Cell: cell, Class: class})
}

func (p *pipeClient) Close() error { return p.c.Close() }

// admitRequest is the message bsd.Client.AdmitWith sends.
func admitRequest(id uint64, class string, o bsd.AdmitOptions) wire.Request {
	return wire.Request{
		V: wire.Version, Op: wire.OpAdmit,
		ID: id, Cell: o.Cell, Class: class,
		SpeedKmh: o.SpeedKmh, AngleDeg: o.AngleDeg,
		Handoff: o.Handoff, Priority: o.Priority, MinBU: o.MinBU,
	}
}
