// Package bsd implements the base-station admission daemon behind
// cmd/facs-server: a TCP server that answers wire-protocol admission
// queries against a bank of per-cell admission controllers, plus the
// matching client.
//
// The daemon is production-shaped in two ways. First, admission state is
// sharded per cell: every cell has its own cac.Controller and its own
// lock, and a request addresses a cell with the wire protocol's "cell"
// field. Each session runs its request against the cell under that lock,
// so each response reports the occupancy produced by its own operation —
// atomically, not a racy read-after. Second, load is bounded: a cell
// counts the requests running or waiting at its lock, and a request
// arriving when QueueDepth are already waiting behind the running one is
// shed immediately with an explicit "overloaded" error response
// (wire.CodeOverloaded) instead of queueing without limit.
//
// The daemon is also deliberately defensive, the way a long-lived network
// element has to be: per-session state is tracked so that a client that
// disconnects (crashes, times out, is partitioned away) automatically
// releases every bandwidth unit it was granted, malformed input yields an
// error response rather than a dropped session, line length is bounded,
// and Close drains cleanly — live sessions are torn down, and Serve
// returns only when every grant has been released.
package bsd

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"facsp/internal/cac"
	"facsp/internal/metrics"
	"facsp/internal/traffic"
	"facsp/internal/wire"
)

// DefaultQueueDepth is the per-cell bound on requests waiting at the cell
// lock used when Config.QueueDepth is unset: deep enough to ride out
// bursts of a few hundred concurrent sessions, shallow enough that a
// stalled controller sheds instead of piling up waiters.
const DefaultQueueDepth = 256

// Config parameterises a daemon.
type Config struct {
	// Cells holds one admission controller per cell; wire requests
	// address a cell by its index here (the "cell" field, default 0).
	// Every controller must be safe for concurrent use (all controllers
	// in this repository are). Must be non-empty.
	Cells []cac.Controller
	// QueueDepth bounds how many requests may wait at a cell's lock
	// behind the one it is running. A request arriving when QueueDepth
	// are already waiting is shed with a wire.CodeOverloaded error
	// response. Zero or negative means DefaultQueueDepth.
	QueueDepth int
}

// cell is one shard of admission state: a controller plus the lock that
// serialises every operation on it.
type cell struct {
	index int
	ctrl  cac.Controller
	mu    sync.Mutex
	// pending counts the requests running or waiting at mu; process sheds
	// a request that would raise it above Server.maxPending.
	pending atomic.Int64
	// reg is the daemon's telemetry registry; every bump of this cell's
	// counter row is one atomic add with no allocation.
	reg *metrics.Registry
	// degraded reads the controller's current degradation depth (number
	// of connections served below request); nil for non-adaptive schemes.
	degraded func() int
	// shedErr is the error text of this cell's shed replies.
	shedErr string
}

// grantKey identifies one live grant of a session: client-chosen
// connection IDs are scoped per (session, cell).
type grantKey struct {
	cell int
	id   uint64
}

// Server serves admission queries for a bank of base-station cells.
type Server struct {
	cells []*cell

	// metrics is the daemon's observability plane: one dense
	// counter/gauge row per cell, served over HTTP by MetricsHandler.
	metrics *metrics.Registry

	// nextID remaps client-chosen connection IDs (which are only unique
	// within a session) to server-unique cac.Request IDs, so schemes that
	// key state on the ID (internal/adapt) cannot suffer cross-session
	// collisions. Non-adaptive schemes ignore IDs entirely.
	nextID atomic.Uint64

	// maxPending is QueueDepth+1: the running request plus its waiters.
	maxPending int64
	// shed counts requests dropped because their cell was at maxPending.
	shed atomic.Uint64

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool
}

// New builds a daemon from a config.
func New(cfg Config) (*Server, error) {
	if len(cfg.Cells) == 0 {
		return nil, fmt.Errorf("bsd: no cells configured")
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	reg, err := metrics.New(len(cfg.Cells))
	if err != nil {
		return nil, fmt.Errorf("bsd: %w", err)
	}
	s := &Server{
		conns:      make(map[net.Conn]bool),
		metrics:    reg,
		maxPending: int64(depth) + 1,
	}
	for i, ctrl := range cfg.Cells {
		if ctrl == nil {
			return nil, fmt.Errorf("bsd: nil controller for cell %d", i)
		}
		c := &cell{index: i, ctrl: ctrl, reg: reg,
			shedErr: fmt.Sprintf("bsd: cell %d overloaded: request queue full", i)}
		if d, ok := ctrl.(interface{ Degraded() int }); ok {
			c.degraded = d.Degraded
		}
		reg.SetGauge(i, metrics.CapacityBU, ctrl.Capacity())
		reg.SetGauge(i, metrics.OccupancyBU, ctrl.Occupancy())
		s.cells = append(s.cells, c)
	}
	return s, nil
}

// NewServer builds a single-cell daemon around one controller.
func NewServer(ctrl cac.Controller) (*Server, error) {
	if ctrl == nil {
		return nil, fmt.Errorf("bsd: nil controller")
	}
	return New(Config{Cells: []cac.Controller{ctrl}})
}

// Cells returns the number of cells the daemon serves.
func (s *Server) Cells() int { return len(s.cells) }

// Shed returns the number of requests shed so far because QueueDepth
// requests were already waiting at their cell.
func (s *Server) Shed() uint64 { return s.shed.Load() }

// Metrics returns the daemon's per-cell telemetry registry. It is live:
// counters keep moving while the daemon serves.
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// Serve accepts connections on ln until Close is called. It always
// returns a non-nil error; after Close the error is net.ErrClosed. When
// it returns via Close, the daemon has fully drained: every session is
// torn down and every grant released.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	// Wait for every session: their disconnect cleanup releases every
	// grant before Serve returns.
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = true
		s.mu.Unlock()

		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting and closes every live session (releasing their
// admitted bandwidth). Serve returns once the drain completes.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	return err
}

// do runs one operation on the cell under its lock. Because every admit
// and release of the cell runs here in turn, the occupancy each response
// carries is exactly the occupancy its own operation produced.
func (c *cell) do(op wire.Op, creq cac.Request, class traffic.Class) wire.Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := wire.Response{
		V:        wire.Version,
		OK:       true,
		Cell:     c.index,
		Capacity: c.ctrl.Capacity(),
		Scheme:   cac.Name(c.ctrl),
	}
	switch op {
	case wire.OpStatus:
		resp.Occupancy = c.ctrl.Occupancy()

	case wire.OpAdmit:
		d := c.ctrl.Admit(creq)
		resp.Accept = d.Accept
		resp.Score = d.Score
		resp.Outcome = d.Outcome
		resp.Allocated = d.Allocated
		// The decision reports the occupancy it produced, observed
		// under the controller's own lock (cac.Decision.Occupancy).
		resp.Occupancy = d.Occupancy
		// One atomic add, no allocation. A denied handoff is a dropped
		// on-going connection; a denied new call is a block.
		switch {
		case d.Accept:
			c.reg.Inc(c.index, metrics.Admits(class))
		case creq.Handoff:
			c.reg.Inc(c.index, metrics.Drops(class))
		default:
			c.reg.Inc(c.index, metrics.Blocks(class))
		}

	case wire.OpRelease:
		if err := c.ctrl.Release(creq); err != nil {
			resp.OK = false
			resp.Err = err.Error()
		}
		// Exact even without a decision struct: the cell lock is held,
		// so nothing interleaves between the release and this read.
		resp.Occupancy = c.ctrl.Occupancy()
	}
	c.reg.SetGauge(c.index, metrics.OccupancyBU, resp.Occupancy)
	if c.degraded != nil {
		c.reg.SetGauge(c.index, metrics.DegradedConns, float64(c.degraded()))
	}
	return resp
}

// overloaded is the shed response for a cell at its pending bound. It
// reads the occupancy and capacity gauges that do sets under the cell
// lock, not the controller, so a shed reply never waits behind the
// running operation's controller lock.
func (c *cell) overloaded() wire.Response {
	return wire.Response{
		V:         wire.Version,
		OK:        false,
		Code:      wire.CodeOverloaded,
		Err:       c.shedErr,
		Cell:      c.index,
		Occupancy: c.reg.GaugeValue(c.index, metrics.OccupancyBU),
		Capacity:  c.reg.GaugeValue(c.index, metrics.CapacityBU),
		Scheme:    cac.Name(c.ctrl),
	}
}

// handle runs one client session.
func (s *Server) handle(conn net.Conn) {
	// grants tracks this session's live grants so a vanished client
	// cannot leak bandwidth.
	grants := make(map[grantKey]cac.Request)
	defer func() {
		// Cleanup releases take the cell lock like any other operation,
		// so they cannot race the responses of live sessions, and they
		// are never shed: a vanished client must not leak its grants.
		for key, creq := range grants {
			s.cells[key.cell].do(wire.OpRelease, creq, 0)
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()

	dec := wire.NewDecoder(conn)
	enc := wire.NewEncoder(conn)
	// One request and one response per session, passed by pointer: boxing
	// a fresh struct into the codec's `any` would allocate per message.
	var (
		req  wire.Request
		resp wire.Response
	)
	for {
		req = wire.Request{}
		if err := dec.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) {
				// Malformed line: answer once, then drop the session —
				// framing is gone.
				resp = s.errResponse(0, err)
				_ = enc.Encode(&resp)
			}
			return
		}
		resp = s.process(req, grants)
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
}

// errResponse builds an error reply, carrying the addressed cell's
// snapshot state when the index resolves. Error replies are advisory —
// they do not claim the atomic occupancy of an op run under the cell lock.
// Like overloaded, it reads the cell's gauges rather than the controller,
// so an error reply never waits behind a running operation.
func (s *Server) errResponse(cellIdx int, err error) wire.Response {
	resp := wire.Response{V: wire.Version, OK: false, Err: err.Error(), Cell: cellIdx}
	if cellIdx >= 0 && cellIdx < len(s.cells) {
		c := s.cells[cellIdx]
		resp.Occupancy = c.reg.GaugeValue(c.index, metrics.OccupancyBU)
		resp.Capacity = c.reg.GaugeValue(c.index, metrics.CapacityBU)
		resp.Scheme = cac.Name(c.ctrl)
	}
	return resp
}

// process validates one request, runs it on its cell, and applies the
// outcome to the session's grant table. Session-level errors (bad
// version, unknown cell, duplicate admit, unknown release) are answered
// without touching the cell.
func (s *Server) process(req wire.Request, grants map[grantKey]cac.Request) wire.Response {
	if err := req.Validate(); err != nil {
		return s.errResponse(req.Cell, err)
	}
	if req.Cell >= len(s.cells) {
		return s.errResponse(req.Cell,
			fmt.Errorf("bsd: unknown cell %d (daemon serves cells 0-%d)", req.Cell, len(s.cells)-1))
	}
	c := s.cells[req.Cell]
	key := grantKey{cell: req.Cell, id: req.ID}
	var (
		creq  cac.Request
		class traffic.Class // admit only: the counter column of the outcome
	)

	switch req.Op {
	case wire.OpAdmit:
		if _, dup := grants[key]; dup {
			return s.errResponse(req.Cell, fmt.Errorf("bsd: connection %d already admitted on this session", req.ID))
		}
		var err error
		if creq, err = req.CACRequest(); err != nil {
			return s.errResponse(req.Cell, err)
		}
		// Client IDs are session-scoped; see nextID.
		creq.ID = s.nextID.Add(1)
		class, _ = wire.ParseClass(req.Class) // validated above
	case wire.OpRelease:
		var ok bool
		if creq, ok = grants[key]; !ok {
			return s.errResponse(req.Cell, fmt.Errorf("bsd: connection %d not admitted on this session", req.ID))
		}
	}

	// Bounded waiting at the cell lock: with QueueDepth requests already
	// waiting behind the running one, shed rather than wait.
	if c.pending.Add(1) > s.maxPending {
		c.pending.Add(-1)
		s.shed.Add(1)
		s.metrics.Inc(req.Cell, metrics.CtrShed)
		return c.overloaded()
	}
	resp := c.do(req.Op, creq, class)
	c.pending.Add(-1)
	if resp.OK {
		switch {
		case req.Op == wire.OpAdmit && resp.Accept:
			grants[key] = creq
		case req.Op == wire.OpRelease:
			delete(grants, key)
		}
	}
	return resp
}

// Client is a wire-protocol client bound to one TCP session.
type Client struct {
	conn net.Conn
	enc  *wire.Encoder
	dec  *wire.Decoder
	mu   sync.Mutex
	// req and resp are the messages of the round trip in flight, guarded
	// by mu; the codec gets pointers to them, so no message is boxed anew.
	req  wire.Request
	resp wire.Response
}

// Dial connects to a daemon.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bsd: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, enc: wire.NewEncoder(conn), dec: wire.NewDecoder(conn)}, nil
}

// Close terminates the session; the server releases any bandwidth still
// held by it.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one request and reads one response.
func (c *Client) roundTrip(req wire.Request) (wire.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.req = req
	if err := c.enc.Encode(&c.req); err != nil {
		return wire.Response{}, err
	}
	c.resp = wire.Response{}
	if err := c.dec.Decode(&c.resp); err != nil {
		return wire.Response{}, err
	}
	return c.resp, nil
}

// AdmitOptions carries the optional parameters of an admission request —
// everything the wire protocol can express beyond the id and class.
type AdmitOptions struct {
	// Cell addresses the target cell of a multi-cell daemon (default 0).
	Cell int
	// SpeedKmh and AngleDeg feed the fuzzy schemes' mobility inputs.
	SpeedKmh float64
	AngleDeg float64
	// Handoff marks an on-going call entering from a neighbour cell.
	Handoff bool
	// Priority is the requesting-connection priority level.
	Priority int
	// MinBU is the lowest bandwidth the connection tolerates when served
	// by an adaptive scheme (a degraded admission); 0 leaves the floor to
	// the scheme's per-class ladder.
	MinBU float64
}

// AdmitWith asks the daemon to admit connection id of the given class
// with the full option set of the wire protocol.
func (c *Client) AdmitWith(id uint64, class string, o AdmitOptions) (wire.Response, error) {
	return c.roundTrip(wire.Request{
		V: wire.Version, Op: wire.OpAdmit,
		ID: id, Cell: o.Cell, Class: class,
		SpeedKmh: o.SpeedKmh, AngleDeg: o.AngleDeg,
		Handoff: o.Handoff, Priority: o.Priority, MinBU: o.MinBU,
	})
}

// Admit asks the daemon to admit connection id on cell 0 with the given
// mobility parameters. Use AdmitWith for priority, min-bandwidth or
// multi-cell admissions.
func (c *Client) Admit(id uint64, class string, speedKmh, angleDeg float64, handoff bool) (wire.Response, error) {
	return c.AdmitWith(id, class, AdmitOptions{SpeedKmh: speedKmh, AngleDeg: angleDeg, Handoff: handoff})
}

// ReleaseIn returns connection id's bandwidth on the given cell.
func (c *Client) ReleaseIn(cellIdx int, id uint64, class string) (wire.Response, error) {
	return c.roundTrip(wire.Request{V: wire.Version, Op: wire.OpRelease, ID: id, Cell: cellIdx, Class: class})
}

// Release returns connection id's bandwidth on cell 0.
func (c *Client) Release(id uint64, class string) (wire.Response, error) {
	return c.ReleaseIn(0, id, class)
}

// StatusIn reports the given cell's occupancy and capacity.
func (c *Client) StatusIn(cellIdx int) (wire.Response, error) {
	return c.roundTrip(wire.Request{V: wire.Version, Op: wire.OpStatus, Cell: cellIdx})
}

// Status reports cell 0's occupancy and capacity.
func (c *Client) Status() (wire.Response, error) { return c.StatusIn(0) }
