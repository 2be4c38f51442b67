// Package wire defines the JSON-lines protocol spoken between
// cmd/facs-server (a base-station admission daemon) and its clients. One
// request per line, one response per line, over a plain TCP stream.
//
// The protocol is deliberately schema-first and versioned so that
// heterogeneous clients (handset simulators, load generators, neighbouring
// base stations) can interoperate with a long-lived daemon.
//
// The bytes on the wire are exactly those of encoding/json, which is the
// codec's reference. Encoder and Decoder handle the fixed two-message
// schema (Request, Response) themselves, field by field; every other type,
// and every line or value outside that fixed grammar (escaped or non-ASCII
// text, unknown keys, null, NaN, out-of-range numbers, malformed input),
// goes through encoding/json unchanged, so its semantics and error texts
// are encoding/json's.
package wire

import (
	"fmt"

	"facsp/internal/cac"
	"facsp/internal/traffic"
)

// Version is the protocol version; servers reject other versions.
//
// Version 1 has grown two backward-compatible extensions: a "cell" field
// on requests (addressing one cell of a multi-cell daemon; absent means
// cell 0, which is what every pre-extension client sends) and a "code"
// field on responses carrying a machine-readable error class. Old clients
// interoperate with new servers and vice versa, so the version is
// unchanged.
const Version = 1

// Response codes: machine-readable error classes carried next to the
// human-readable Err text, so clients (load generators, neighbour cells)
// can distinguish backpressure from protocol bugs without parsing
// messages.
const (
	// CodeOverloaded marks a request shed by an overloaded cell: its
	// bounded request queue was full. The request had no effect; the
	// client may retry later.
	CodeOverloaded = "overloaded"
)

// Op is the request operation.
type Op string

// Supported operations.
const (
	// OpAdmit asks the BS to admit a connection.
	OpAdmit Op = "admit"
	// OpRelease returns a connection's bandwidth.
	OpRelease Op = "release"
	// OpStatus asks for occupancy/capacity without changing state.
	OpStatus Op = "status"
)

// Request is one client message.
type Request struct {
	// V is the protocol version (must equal Version).
	V int `json:"v"`
	// Op selects the operation (admit, release, status).
	Op Op `json:"op"`
	// ID identifies the connection across admit/release.
	ID uint64 `json:"id,omitempty"`
	// Cell addresses one cell of a multi-cell daemon by index. Absent (0)
	// targets cell 0, so single-cell clients predating the field keep
	// working unchanged.
	Cell int `json:"cell,omitempty"`
	// Class is the service class name: "text", "voice" or "video".
	Class string `json:"class,omitempty"`
	// SpeedKmh is the user speed in km/h.
	SpeedKmh float64 `json:"speed_kmh,omitempty"`
	// AngleDeg is the trajectory angle relative to the BS bearing.
	AngleDeg float64 `json:"angle_deg,omitempty"`
	// Handoff marks an on-going call entering from a neighbour cell.
	Handoff bool `json:"handoff,omitempty"`
	// Priority is the optional requesting-connection priority level.
	Priority int `json:"priority,omitempty"`
	// MinBU is the lowest bandwidth (in BU) the connection can tolerate.
	// Adaptive schemes may serve it anywhere in [MinBU, class bandwidth];
	// 0 leaves the floor to the scheme's per-class degradation ladder.
	// Non-adaptive schemes ignore it.
	MinBU float64 `json:"min_bu,omitempty"`
}

// Response is one server message.
type Response struct {
	// V is the protocol version.
	V int `json:"v"`
	// OK distinguishes protocol-level success from Err.
	OK bool `json:"ok"`
	// Err carries the error message when OK is false.
	Err string `json:"err,omitempty"`
	// Code is the machine-readable error class when OK is false (e.g.
	// CodeOverloaded); empty for errors without a dedicated class.
	Code string `json:"code,omitempty"`
	// Cell echoes the cell index the response describes.
	Cell int `json:"cell,omitempty"`
	// Accept is the admission verdict (admit only).
	Accept bool `json:"accept,omitempty"`
	// Score is the controller's confidence in [-1, 1].
	Score float64 `json:"score,omitempty"`
	// Outcome is the linguistic outcome (A, WA, NRNA, WR, R, ...).
	Outcome string `json:"outcome,omitempty"`
	// Allocated is the bandwidth actually granted in BU on an accepted
	// admit. Adaptive schemes may grant less than the class bandwidth (a
	// degraded admission); non-adaptive schemes omit it, meaning the full
	// request was granted.
	Allocated float64 `json:"allocated,omitempty"`
	// Occupancy and Capacity report the cell state in BU.
	Occupancy float64 `json:"occupancy"`
	// Capacity is the cell's total bandwidth.
	Capacity float64 `json:"capacity"`
	// Scheme names the admission scheme serving the cell.
	Scheme string `json:"scheme,omitempty"`
}

// ParseClass maps a wire class name to a traffic class.
func ParseClass(name string) (traffic.Class, error) {
	switch name {
	case "text":
		return traffic.Text, nil
	case "voice":
		return traffic.Voice, nil
	case "video":
		return traffic.Video, nil
	default:
		return 0, fmt.Errorf("wire: unknown class %q (want text, voice or video)", name)
	}
}

// Validate checks a request's protocol-level invariants.
func (r Request) Validate() error {
	if r.V != Version {
		return fmt.Errorf("wire: protocol version %d, want %d", r.V, Version)
	}
	if r.Cell < 0 {
		return fmt.Errorf("wire: negative cell %d", r.Cell)
	}
	switch r.Op {
	case OpAdmit, OpRelease:
		if _, err := ParseClass(r.Class); err != nil {
			return err
		}
		if r.SpeedKmh < 0 {
			return fmt.Errorf("wire: negative speed %v", r.SpeedKmh)
		}
		if r.Priority < 0 {
			return fmt.Errorf("wire: negative priority %d", r.Priority)
		}
		if r.MinBU < 0 {
			return fmt.Errorf("wire: negative min bandwidth %v", r.MinBU)
		}
	case OpStatus:
		// No payload.
	default:
		return fmt.Errorf("wire: unknown op %q", r.Op)
	}
	return nil
}

// CACRequest converts a validated wire request into the controller
// contract type.
func (r Request) CACRequest() (cac.Request, error) {
	class, err := ParseClass(r.Class)
	if err != nil {
		return cac.Request{}, err
	}
	if r.MinBU > class.Bandwidth() {
		return cac.Request{}, fmt.Errorf("wire: min bandwidth %v exceeds %s class bandwidth %v",
			r.MinBU, class, class.Bandwidth())
	}
	return cac.Request{
		ID:           r.ID,
		Speed:        r.SpeedKmh,
		Angle:        r.AngleDeg,
		Bandwidth:    class.Bandwidth(),
		MinBandwidth: r.MinBU,
		RealTime:     class.RealTime(),
		Handoff:      r.Handoff,
		Priority:     r.Priority,
	}, nil
}
