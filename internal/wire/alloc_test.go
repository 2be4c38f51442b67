//go:build !race

package wire

import (
	"bytes"
	"testing"
)

// The codec sits on every admission round trip; in steady state encoding
// and decoding a Request or Response must not allocate. The messages are
// passed as pointers boxed once outside the measured loop: boxing a
// struct value into Encode's `any` is the caller's allocation. AllocsPerRun
// is meaningless under -race (the detector instruments allocations), so
// these tests are build-gated out of the race CI lane.

var (
	allocRequest = Request{V: Version, Op: OpAdmit, ID: 4711, Cell: 7, Class: "video",
		SpeedKmh: 87.25, AngleDeg: -12.5, Handoff: true, Priority: 1, MinBU: 7}
	allocResponse = Response{V: Version, OK: true, Cell: 7, Accept: true, Score: 0.6180339887,
		Outcome: "WA", Allocated: 7, Occupancy: 31, Capacity: 40, Scheme: "FACS-P"}
)

// steadyState encodes msg n times into an in-memory buffer, then returns a
// decoder positioned on those lines with the first one already decoded
// into out, so the strings it reuses are known.
func steadyState(t *testing.T, msg, out any, n int) *Decoder {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for i := 0; i < n+1; i++ {
		if err := enc.Encode(msg); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	if err := dec.Decode(out); err != nil {
		t.Fatal(err)
	}
	return dec
}

func TestEncodeAllocFree(t *testing.T) {
	for _, msg := range []any{&allocRequest, &allocResponse} {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.Encode(msg); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(1000, func() {
			buf.Reset()
			if err := enc.Encode(msg); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Encode(%T) allocates %v per op, want 0", msg, n)
		}
	}
}

func TestDecodeAllocFree(t *testing.T) {
	const runs = 1000
	var req Request
	var out any = &req
	dec := steadyState(t, &allocRequest, out, runs+1)
	if n := testing.AllocsPerRun(runs, func() {
		if err := dec.Decode(out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Decode(*Request) allocates %v per op, want 0", n)
	}
	if req != allocRequest {
		t.Errorf("decoded %+v, want %+v", req, allocRequest)
	}

	var resp Response
	out = &resp
	dec = steadyState(t, &allocResponse, out, runs+1)
	if n := testing.AllocsPerRun(runs, func() {
		if err := dec.Decode(out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Decode(*Response) allocates %v per op, want 0", n)
	}
	if resp != allocResponse {
		t.Errorf("decoded %+v, want %+v", resp, allocResponse)
	}
}
