package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"facsp/internal/bsd"
	"facsp/internal/cac"
	"facsp/internal/wire"
)

// TestMain lets the test binary stand in for the benchmark binary: a run
// times its set-up by starting its own executable again, which under
// go test is this binary.
func TestMain(m *testing.M) {
	if os.Getenv("FACS_BENCHMARK_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	if err := os.Setenv("FACS_BENCHMARK_MAIN", "1"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// benchJSON is the part of BENCHMARK.json the runs must honour.
type benchJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchJSON(t *testing.T) benchJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchJSON
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsReportEveryMetric runs every workload for a second, untraced
// and traced, and checks the JSON line: every metric BENCHMARK.json names,
// with its unit, and no failed operation or output check.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	s := readBenchJSON(t)
	if got, want := len(s.Workloads), len(workloads); got != want {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", got, want)
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, s.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				var out bytes.Buffer
				if code := runOne(&out, w, 1, time.Second, traced, t.TempDir()); code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatal(err)
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d:\n%s", got.Correct, got.Attempted, got.Failed, out.String())
				}
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d: %v", len(got.Metrics), len(want), got.Metrics)
				}
				for _, m := range want {
					if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, g, ok, m.Unit)
					}
				}
			})
		}
	}
}

// TestSimGoldenHashes pins the first results of both simulation workloads
// at seed 1, and checks that the traced admitter changes none of them.
func TestSimGoldenHashes(t *testing.T) {
	data, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	paper, err := newSimPaper(1)
	if err != nil {
		t.Fatal(err)
	}
	city, err := newSimCity(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*simEngine{paper.e, city.e} {
		plain, _ := runOps(e, 0, nil, 0)
		traced, _ := runOps(e, 0, newRecorder(), 0)
		p := summarize(e, plain, time.Second, nil)
		q := summarize(e, traced, time.Second, nil)
		if got := fmt.Sprintf("%016x", p.hash); got != golden[e.name] {
			t.Errorf("%s: result hash %s, golden %s", e.name, got, golden[e.name])
		}
		if p.hash != q.hash {
			t.Errorf("%s: traced results hash %016x, untraced %016x", e.name, q.hash, p.hash)
		}
		for _, o := range append(plain, traced...) {
			if o.problem != "" {
				t.Errorf("%s: %s", e.name, o.problem)
			}
		}
	}
}

// overAdmitter accepts every request, whatever its occupancy.
type overAdmitter struct {
	mu  sync.Mutex
	occ float64
}

func (o *overAdmitter) Admit(r cac.Request) cac.Decision {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.occ += r.Bandwidth
	return cac.Decision{Accept: true, Score: 1, Outcome: "A", Occupancy: o.occ}
}

func (o *overAdmitter) Release(r cac.Request) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.occ -= r.Bandwidth
	return nil
}

func (o *overAdmitter) Occupancy() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.occ
}

func (o *overAdmitter) Capacity() float64 { return serveCapacityBU }

func TestOverAdmittingControllerIsCaught(t *testing.T) {
	s, err := startServe(serveExactHot, 1, nil, func(int, cac.Controller) cac.Controller { return &overAdmitter{} })
	if err != nil {
		t.Fatal(err)
	}
	s.phase(s.spec.rate, 300*time.Millisecond)
	res := &result{}
	s.finish(res)
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	if len(res.problems) == 0 || !strings.Contains(strings.Join(res.problems, "\n"), "outside [0, capacity]") {
		t.Fatalf("over-admission not reported; problems: %v", res.problems)
	}
}

// slowController is a 40 BU complete-sharing cell that takes pause per
// operation, so a depth-1 queue behind it overflows.
type slowController struct {
	overAdmitter
	pause time.Duration
}

func (c *slowController) Admit(r cac.Request) cac.Decision {
	time.Sleep(c.pause)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.occ+r.Bandwidth > serveCapacityBU {
		return cac.Decision{Score: -1, Outcome: "R", Occupancy: c.occ}
	}
	c.occ += r.Bandwidth
	return cac.Decision{Accept: true, Score: 1, Outcome: "A", Occupancy: c.occ}
}

func (c *slowController) Release(r cac.Request) error {
	time.Sleep(c.pause)
	return c.overAdmitter.Release(r)
}

// TestShedReleasesKeepTheIdentity sheds admits and releases against
// depth-1 queues and checks that admits still partition into accepted,
// rejected, shed and errors, that shed releases are counted apart and
// retried, and that every cell drains to zero.
func TestShedReleasesKeepTheIdentity(t *testing.T) {
	const cells = 2
	ctrls := []cac.Controller{&slowController{pause: 200 * time.Microsecond}, &slowController{pause: 200 * time.Microsecond}}
	srv, err := bsd.New(bsd.Config{Cells: ctrls, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	conns := make([]*conn, 6)
	for i := range conns {
		if conns[i], err = newConn(ln.dial(), cells); err != nil {
			t.Fatal(err)
		}
	}
	load := loadSpec{weights: []float64{1, 1}, capacityBU: serveCapacityBU, loadFactor: 1.2}
	res := runPhase(conns, load.schedule(7, 3000, 500*time.Millisecond, 0))
	// Checked before the sessions close: closing releases leftover grants.
	for i, c := range ctrls {
		if occ := c.Occupancy(); occ != 0 {
			t.Errorf("cell %d at %v BU after drain", i, occ)
		}
	}
	for _, c := range conns {
		c.close()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if res.offered != res.accepted+res.rejected+res.shed+res.errors {
		t.Errorf("offered %d != accepted %d + rejected %d + shed %d + errors %d", res.offered, res.accepted, res.rejected, res.shed, res.errors)
	}
	if res.shed == 0 || res.releaseShed == 0 {
		t.Errorf("want admits and releases shed; got %d and %d", res.shed, res.releaseShed)
	}
	if res.errors != 0 || res.releaseErrors != 0 {
		t.Errorf("errors %d, release errors %d: %s", res.errors, res.releaseErrors, res.firstProblem)
	}
	if res.releases != res.accepted+res.releaseShed {
		t.Errorf("release attempts %d != accepted %d + shed releases %d", res.releases, res.accepted, res.releaseShed)
	}
}

// stallSession answers every admit at once, except every 10th, which it
// holds for stall.
type stallSession struct {
	n     int
	stall time.Duration
}

func (s *stallSession) AdmitWith(id uint64, class string, o bsd.AdmitOptions) (wire.Response, error) {
	s.n++
	if s.n%10 == 0 {
		time.Sleep(s.stall)
	}
	return wire.Response{V: wire.Version, OK: true, Cell: o.Cell, Capacity: serveCapacityBU}, nil
}

func (s *stallSession) ReleaseIn(int, uint64, string) (wire.Response, error) {
	return wire.Response{V: wire.Version, OK: true, Capacity: serveCapacityBU}, nil
}

func (s *stallSession) Close() error { return nil }

// TestStallsAreChargedAndSlackIsNot checks the slack correction: requests
// due while a stalled reply is outstanding are timed from their due time,
// and every other request from its send, so pacer slack is never charged.
func TestStallsAreChargedAndSlackIsNot(t *testing.T) {
	const every, stall = 400 * time.Microsecond, 2 * time.Millisecond
	var plan []request
	for i := 1; i <= 300; i++ {
		plan = append(plan, request{at: time.Duration(i) * every, id: uint64(i), opts: bsd.AdmitOptions{Cell: 0}})
	}
	c, err := newConn(&stallSession{stall: stall}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	res := runPhase([]*conn{c}, plan)
	if len(res.samples) != len(plan) {
		t.Fatalf("%d samples, want %d", len(res.samples), len(plan))
	}
	var stalled [][2]int64
	for i, s := range res.samples {
		if (i+1)%10 == 0 {
			stalled = append(stalled, [2]int64{s.sent, s.done})
		}
	}
	busy := 0
	for i, s := range res.samples {
		inStall := false
		for _, st := range stalled {
			inStall = inStall || (st[0] <= s.due && s.due < st[1])
		}
		if s.busy != inStall {
			t.Errorf("request %d due %d: busy %v, but due inside a stalled reply %v", i, s.due, s.busy, inStall)
		}
		want := s.done - s.sent
		if s.busy {
			busy++
			want = s.done - s.due
		}
		if s.latency() != want {
			t.Errorf("request %d (busy %v): latency %d, want %d", i, s.busy, s.latency(), want)
		}
	}
	// Each 2ms stall holds up the ~4 requests due during it.
	if busy < 3*len(stalled) {
		t.Errorf("%d requests charged a stall, want at least %d", busy, 3*len(stalled))
	}
}

func TestPercentileNearestRankAndSupport(t *testing.T) {
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as supported")
	}
	seq := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{1, 0.5, 1, false},
		{100, 0.5, 50, true},
		{100, 0.99, 99, false},
		{1000, 0.99, 990, true},
		{1000, 1, 1000, false},
		{20, 0.5, 10, true},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d q=%v: got %d %v, want %d %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestScheduleFollowsCellWeights(t *testing.T) {
	weights := make([]float64, serveCells)
	for i := range weights {
		weights[i] = 1
	}
	weights[0] = serveExactHot.hot
	l := loadSpec{weights: weights, capacityBU: serveCapacityBU, loadFactor: serveLoadFactor}
	plan := l.schedule(3, 20000, time.Second, 0)
	hot := 0
	for _, r := range plan {
		if r.opts.Cell == 0 {
			hot++
		}
	}
	want := serveExactHot.hot / (serveExactHot.hot + serveCells - 1)
	if got := float64(hot) / float64(len(plan)); got < want-0.02 || got > want+0.02 {
		t.Errorf("cell 0 drew %.3f of %d arrivals, want %.3f", got, len(plan), want)
	}
}
