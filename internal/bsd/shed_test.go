package bsd

import (
	"sync"
	"testing"
	"time"

	"facsp/internal/cac"
	"facsp/internal/wire"
)

// meteredCtrl is blockingCtrl with real occupancy accounting, so a test
// can see every grant come back.
type meteredCtrl struct {
	*blockingCtrl
	mu  sync.Mutex
	occ float64
}

func (m *meteredCtrl) Admit(r cac.Request) cac.Decision {
	d := m.blockingCtrl.Admit(r)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.occ += r.Bandwidth
	d.Occupancy = m.occ
	return d
}

func (m *meteredCtrl) Release(r cac.Request) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.occ -= r.Bandwidth
	return nil
}

func (m *meteredCtrl) Occupancy() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.occ
}

// gateFixture drives a depth-1 single-cell daemon over a blocking
// controller: one gate token lets exactly one parked Admit through.
type gateFixture struct {
	t    *testing.T
	ctrl *blockingCtrl
	srv  *Server
	addr string
}

func newGateFixture(t *testing.T, ctrl cac.Controller, gate *blockingCtrl) *gateFixture {
	addr, srv, shutdown := startConfigServer(t, Config{Cells: []cac.Controller{ctrl}, QueueDepth: 1})
	t.Cleanup(shutdown)
	return &gateFixture{t: t, ctrl: gate, srv: srv, addr: addr}
}

func (f *gateFixture) dial() *Client {
	cl, err := Dial(f.addr)
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { cl.Close() })
	return cl
}

// admitThrough admits a voice call on cl, passing one gate token to its
// parked Admit.
func (f *gateFixture) admitThrough(cl *Client, id uint64) {
	f.t.Helper()
	go func() {
		<-f.ctrl.entered
		f.ctrl.gate <- struct{}{}
	}()
	if resp, err := cl.Admit(id, "voice", 0, 0, false); err != nil || !resp.OK || !resp.Accept {
		f.t.Fatalf("admit %d = %+v, %v", id, resp, err)
	}
}

// saturate parks one admit inside the controller and queues a second
// behind it, putting the depth-1 cell at its shed limit. The returned
// channels carry their responses once the gate opens.
func (f *gateFixture) saturate(running, waiting *Client) (chan wire.Response, chan wire.Response) {
	f.t.Helper()
	admit := func(cl *Client, id uint64) chan wire.Response {
		out := make(chan wire.Response, 1)
		go func() {
			resp, err := cl.Admit(id, "voice", 0, 0, false)
			if err != nil {
				f.t.Errorf("admit %d: %v", id, err)
			}
			out <- resp
		}()
		return out
	}
	first := admit(running, 100)
	<-f.ctrl.entered
	second := admit(waiting, 101)
	deadline := time.Now().Add(5 * time.Second)
	for f.srv.cells[0].pending.Load() != f.srv.maxPending {
		if time.Now().After(deadline) {
			f.t.Fatalf("cell never reached its shed limit: pending %d", f.srv.cells[0].pending.Load())
		}
		time.Sleep(time.Millisecond)
	}
	return first, second
}

// TestShedReleaseKeepsGrant pins the shed path for releases: a release
// arriving at a saturated cell is answered "overloaded" without touching
// the session's grant table, so a retry once the cell drains succeeds.
func TestShedReleaseKeepsGrant(t *testing.T) {
	ctrl := newBlockingCtrl()
	f := newGateFixture(t, ctrl, ctrl)
	a, b, c := f.dial(), f.dial(), f.dial()
	f.admitThrough(a, 1)
	bResp, cResp := f.saturate(b, c)

	resp, err := a.Release(1, "voice")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != wire.CodeOverloaded {
		t.Fatalf("release at a saturated cell = %+v, want code %q", resp, wire.CodeOverloaded)
	}
	if got := f.srv.Shed(); got != 1 {
		t.Errorf("Shed() = %d, want 1", got)
	}

	close(ctrl.gate)
	for _, ch := range []chan wire.Response{bResp, cResp} {
		if r := <-ch; !r.OK || !r.Accept {
			t.Errorf("gated admit = %+v", r)
		}
	}
	if resp, err := a.Release(1, "voice"); err != nil || !resp.OK {
		t.Errorf("retried release = %+v, %v; the shed release lost the grant", resp, err)
	}
}

// TestDisconnectAtShedLimitReleasesAll pins the cleanup path: a session
// that disconnects while its cell is at the shed limit still releases
// every grant once the cell drains, and cleanup releases are never shed.
func TestDisconnectAtShedLimitReleasesAll(t *testing.T) {
	ctrl := &meteredCtrl{blockingCtrl: newBlockingCtrl()}
	f := newGateFixture(t, ctrl, ctrl.blockingCtrl)
	a, b, c := f.dial(), f.dial(), f.dial()
	for id := uint64(1); id <= 3; id++ {
		f.admitThrough(a, id)
	}
	bResp, cResp := f.saturate(b, c)

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Give the session's cleanup time to reach the busy cell lock.
	time.Sleep(50 * time.Millisecond)
	if got := ctrl.Occupancy(); got != 15 {
		t.Errorf("occupancy with the cell blocked = %v, want session A's 15", got)
	}

	close(ctrl.gate)
	for _, ch := range []chan wire.Response{bResp, cResp} {
		if r := <-ch; !r.OK || !r.Accept {
			t.Errorf("gated admit = %+v", r)
		}
	}
	if resp, err := b.Release(100, "voice"); err != nil || !resp.OK {
		t.Errorf("release = %+v, %v", resp, err)
	}
	if resp, err := c.Release(101, "voice"); err != nil || !resp.OK {
		t.Errorf("release = %+v, %v", resp, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ctrl.Occupancy() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("disconnected session's grants not released; occupancy = %v", ctrl.Occupancy())
		}
		time.Sleep(time.Millisecond)
	}
	if got := f.srv.Shed(); got != 0 {
		t.Errorf("Shed() = %d, want 0: cleanup releases must never be shed", got)
	}
}

// lockedCtrl holds its own lock for the whole of a parked Admit, the way
// a controller serialising its state does, so Occupancy and Capacity wait
// for the gate.
type lockedCtrl struct {
	*blockingCtrl
	mu sync.Mutex
}

func (l *lockedCtrl) Admit(r cac.Request) cac.Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.blockingCtrl.Admit(r)
}

func (l *lockedCtrl) Occupancy() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.blockingCtrl.Occupancy()
}

func (l *lockedCtrl) Capacity() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.blockingCtrl.Capacity()
}

// TestShedDoesNotWaitForController pins the shed path's independence from
// the controller: with an Admit parked inside the controller's own lock,
// a request shed at the saturated cell is still answered at once, with
// the occupancy and capacity the cell last reported.
func TestShedDoesNotWaitForController(t *testing.T) {
	ctrl := &lockedCtrl{blockingCtrl: newBlockingCtrl()}
	f := newGateFixture(t, ctrl, ctrl.blockingCtrl)
	a, b, c := f.dial(), f.dial(), f.dial()
	bResp, cResp := f.saturate(b, c)
	// Registered after the fixture, so it runs before the server drains.
	var once sync.Once
	open := func() { once.Do(func() { close(ctrl.gate) }) }
	t.Cleanup(open)

	shed := make(chan wire.Response, 1)
	go func() {
		resp, err := a.Admit(1, "voice", 0, 0, false)
		if err != nil {
			t.Errorf("shed admit: %v", err)
		}
		shed <- resp
	}()
	select {
	case resp := <-shed:
		want := wire.Response{
			V: wire.Version, Code: wire.CodeOverloaded,
			Err:      "bsd: cell 0 overloaded: request queue full",
			Capacity: 40, Scheme: cac.Name(ctrl),
		}
		if resp != want {
			t.Errorf("shed reply = %+v, want %+v", resp, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("shed reply waited for the controller's lock")
	}

	open()
	for _, ch := range []chan wire.Response{bResp, cResp} {
		if r := <-ch; !r.OK || !r.Accept {
			t.Errorf("gated admit = %+v", r)
		}
	}
}

// TestErrorReplyDoesNotWaitForController pins error replies to the same
// independence: with an Admit parked inside the controller's own lock, a
// request that fails validation on another session is answered at once,
// with the occupancy and capacity the cell last reported.
func TestErrorReplyDoesNotWaitForController(t *testing.T) {
	ctrl := &lockedCtrl{blockingCtrl: newBlockingCtrl()}
	f := newGateFixture(t, ctrl, ctrl.blockingCtrl)
	a, b := f.dial(), f.dial()
	parked := make(chan wire.Response, 1)
	go func() {
		resp, err := b.Admit(100, "voice", 0, 0, false)
		if err != nil {
			t.Errorf("parked admit: %v", err)
		}
		parked <- resp
	}()
	<-ctrl.entered
	// Registered after the fixture, so it runs before the server drains.
	var once sync.Once
	open := func() { once.Do(func() { close(ctrl.gate) }) }
	t.Cleanup(open)

	reply := make(chan wire.Response, 1)
	go func() {
		resp, err := a.Admit(1, "fax", 0, 0, false)
		if err != nil {
			t.Errorf("fax admit: %v", err)
		}
		reply <- resp
	}()
	select {
	case resp := <-reply:
		if resp.OK || resp.Err == "" || resp.Occupancy != 0 || resp.Capacity != 40 || resp.Scheme != cac.Name(ctrl) {
			t.Errorf("error reply = %+v, want a refusal carrying capacity 40", resp)
		}
	case <-time.After(time.Second):
		t.Fatal("error reply waited for the controller's lock")
	}

	open()
	if r := <-parked; !r.OK || !r.Accept {
		t.Errorf("parked admit = %+v", r)
	}
}
