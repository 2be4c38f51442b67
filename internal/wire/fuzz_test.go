package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"facsp/internal/traffic"
)

// fuzzSeeds are the shared starting corpus for both decode targets: valid
// traffic, malformed JSON, pathological numbers, and framing attacks
// (oversized single line, embedded blank lines, huge repeated input).
func fuzzSeeds(f *testing.F) {
	f.Add([]byte(`{"v":1,"op":"admit","id":1,"class":"voice","speed_kmh":60,"angle_deg":10}` + "\n"))
	f.Add([]byte(`{"v":1,"op":"release","id":1,"class":"voice"}` + "\n"))
	f.Add([]byte(`{"v":1,"op":"status"}` + "\n"))
	f.Add([]byte(`{"v":1,"ok":true,"accept":true,"score":0.62,"outcome":"A","occupancy":5,"capacity":40,"scheme":"FACS-P"}` + "\n"))
	f.Add([]byte("not json\n"))
	f.Add([]byte("{\n"))
	f.Add([]byte(`{"v":1,"op":"admit","class":"voice","min_bu":1e308,"speed_kmh":-1}` + "\n"))
	f.Add([]byte(`{"v":9999999999999999999,"op":"admit"}` + "\n"))
	f.Add([]byte(`{"v":1,"op":"admit","id":-1}` + "\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"v":1,"op":"admit","class":"` + strings.Repeat("x", 100) + `"}` + "\n"))
	// One line over the decoder's 64 KiB bound.
	f.Add([]byte(`{"pad":"` + strings.Repeat("a", 70<<10) + `"}` + "\n"))
	// Many small lines: the decoder must terminate by consuming input.
	f.Add(bytes.Repeat([]byte(`{"v":1,"op":"status"}`+"\n"), 64))
	// Edges of the decoder's fast grammar, each next to the encoding/json
	// behaviour it must reproduce or hand over to.
	f.Add([]byte(" {\t\"v\" : 1 ,\"op\":\"admit\",\"speed_kmh\":-0,\"angle_deg\":-0.0,\"min_bu\":1E-7}\r\n"))
	f.Add([]byte(`{"v":1,"op":"admit","v":2,"V":3,"Op":"status","class":"vo\u0069ce"}` + "\n"))
	f.Add([]byte(`{"v":null,"op":"admit","handoff":null,"id":18446744073709551615,"cell":9223372036854775807}` + "\n"))
	f.Add([]byte(`{"v":1,"id":18446744073709551616,"priority":-9223372036854775809,"cell":1.0,"speed_kmh":1e400}` + "\n"))
	f.Add([]byte(`{"v":1,"op":"admit","angle_deg":0.1234567890123456789,"speed_kmh":9007199254740993,"min_bu":012}` + "\n"))
	f.Add([]byte(`{"v":1,"op":"admit","speed_kmh":398.36064958888621,"angle_deg":-93.38779410273147844}` + "\n"))
	f.Add([]byte(`{"v":1,"ok":false,"err":"bsd: cell 3 overloaded: request queue full","code":"overloaded","cell":3,"occupancy":37,"capacity":40,"scheme":"FACS-P"}` + "\n"))
	f.Add([]byte("{\"v\":1,\"ok\":true,\"outcome\":\"caf\xc3\xa9\",\"scheme\":\"\xff\",\"extra\":[1,{\"a\":2}],\"score\":true}\n"))
	f.Add([]byte(`{"v":1,"ok":true}x` + "\n" + `{"v":1,}` + "\n" + `{,}` + "\n" + `{}` + "\n" + `null` + "\n" + `[]` + "\n"))
}

// The prefilled values every differential decode also starts from: a line
// must set exactly the fields json.Unmarshal sets and leave the rest.
var (
	prefilledRequest = Request{V: 7, Op: "x", ID: 9, Cell: 3, Class: "c",
		SpeedKmh: 1.5, AngleDeg: -2, Handoff: true, Priority: 4, MinBU: 0.5}
	prefilledResponse = Response{V: 7, OK: true, Err: "e", Code: "c", Cell: 3, Accept: true,
		Score: 0.25, Outcome: "o", Allocated: 2, Occupancy: 9, Capacity: 11, Scheme: "s"}
)

// differential decodes the lines of data through Decoders into zero and
// prefilled values, next to a reference scanner framed as the Decoder
// frames its input, and requires each result to be json.Unmarshal's on
// the same line from the same start: the same value and the same error
// text.
type differential[T comparable] struct {
	zero, pre *Decoder
	ref       *bufio.Scanner
	prefilled T
}

func newDifferential[T comparable](data []byte, prefilled T) *differential[T] {
	ref := bufio.NewScanner(bytes.NewReader(data))
	ref.Buffer(make([]byte, 0, 4096), 64<<10)
	return &differential[T]{
		zero:      NewDecoder(bytes.NewReader(data)),
		pre:       NewDecoder(bytes.NewReader(data)),
		ref:       ref,
		prefilled: prefilled,
	}
}

// decode reads the next line into a zero value and checks both decodes
// against encoding/json; it returns the zero-start result.
func (d *differential[T]) decode(t *testing.T) (T, error) {
	t.Helper()
	var got T
	err := d.zero.Decode(&got)
	pre := d.prefilled
	preErr := d.pre.Decode(&pre)
	if !d.ref.Scan() {
		want := d.ref.Err()
		if want == nil {
			want = io.EOF
		}
		for _, e := range []error{err, preErr} {
			if !errors.Is(e, want) {
				t.Fatalf("end of stream: Decode = %v, want %v", e, want)
			}
		}
		return got, err
	}
	var zero T
	for _, c := range []struct {
		start, got T
		err        error
	}{{zero, got, err}, {d.prefilled, pre, preErr}} {
		want := c.start
		wantErr := json.Unmarshal(d.ref.Bytes(), &want)
		switch {
		case wantErr == nil && c.err != nil:
			t.Fatalf("Decode(%q) = %v; json.Unmarshal accepts it", d.ref.Text(), c.err)
		case wantErr != nil && (c.err == nil || c.err.Error() != fmt.Sprintf("wire: unmarshal %q: %v", d.ref.Text(), wantErr)):
			t.Fatalf("Decode(%q) error = %v; json.Unmarshal: %v", d.ref.Text(), c.err, wantErr)
		case c.got != want:
			t.Fatalf("Decode(%q) from %+v:\n got %+v\nwant %+v (json.Unmarshal)", d.ref.Text(), c.start, c.got, want)
		}
	}
	return got, err
}

// FuzzDecodeRequest drains arbitrary bytes through the bounded
// line-oriented decoder. Each line must decode exactly as json.Unmarshal
// decodes it, value and error text, from a zero and from a prefilled
// Request. It also checks the protocol invariant chain: Decode always
// terminates with a decoded value or a definite error, and any request
// that passes Validate must convert via CACRequest into a controller
// request that itself validates — the daemon relies on exactly that chain
// for every admission it queues.
func FuzzDecodeRequest(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := newDifferential(data, prefilledRequest)
		// One iteration bound: input is finite, so Decode can return at
		// most one value per newline plus one trailing error. Hitting the
		// bound means the decoder stopped consuming input.
		maxMsgs := bytes.Count(data, []byte{'\n'}) + 2
		for i := 0; ; i++ {
			if i > maxMsgs {
				t.Fatalf("decoder did not terminate after %d messages", maxMsgs)
			}
			req, err := dec.decode(t)
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				// A framing or syntax error kills the session in the
				// daemon; the stream is done.
				return
			}
			if err := req.Validate(); err != nil {
				continue
			}
			if req.Op == OpStatus {
				// Status carries no payload to convert.
				continue
			}
			creq, err := req.CACRequest()
			if err != nil {
				// The only post-Validate failure is a min-bandwidth above
				// the class bandwidth; anything else is a drifted contract.
				if req.MinBU <= mustClass(t, req.Class).Bandwidth() {
					t.Fatalf("CACRequest failed on a validated request %+v: %v", req, err)
				}
				continue
			}
			if err := creq.Validate(); err != nil {
				t.Fatalf("validated wire request %+v produced invalid cac request %+v: %v", req, creq, err)
			}
			// Round-trip: a decoded request re-encodes to the same value
			// (Request is comparable — no slices or maps).
			var buf bytes.Buffer
			if err := NewEncoder(&buf).Encode(req); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			var again Request
			if err := NewDecoder(&buf).Decode(&again); err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if again != req {
				t.Fatalf("request round-trip changed the value:\n%+v\n%+v", req, again)
			}
		}
	})
}

// FuzzDecodeResponse drains arbitrary bytes as responses — the client
// half of the protocol (loadgen, neighbour daemons) — requiring
// json.Unmarshal's result on every line as FuzzDecodeRequest does, and
// round-trips every decoded value through the encoder.
func FuzzDecodeResponse(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := newDifferential(data, prefilledResponse)
		maxMsgs := bytes.Count(data, []byte{'\n'}) + 2
		for i := 0; ; i++ {
			if i > maxMsgs {
				t.Fatalf("decoder did not terminate after %d messages", maxMsgs)
			}
			resp, err := dec.decode(t)
			if err != nil {
				// EOF or a framing/syntax error: the stream is done.
				return
			}
			// NaN/Inf cannot round-trip JSON; Marshal rejects them, which
			// is fine — a real daemon never emits them.
			if hasNonFinite(resp) {
				continue
			}
			var buf bytes.Buffer
			if err := NewEncoder(&buf).Encode(resp); err != nil {
				t.Fatalf("re-encode of decoded response %+v: %v", resp, err)
			}
			var again Response
			if err := NewDecoder(&buf).Decode(&again); err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if again != resp {
				t.Fatalf("response round-trip changed the value:\n%+v\n%+v", resp, again)
			}
		}
	})
}

func mustClass(t *testing.T, name string) traffic.Class {
	t.Helper()
	c, err := ParseClass(name)
	if err != nil {
		t.Fatalf("class %q passed Validate but not ParseClass: %v", name, err)
	}
	return c
}

func hasNonFinite(r Response) bool {
	for _, v := range []float64{r.Score, r.Allocated, r.Occupancy, r.Capacity} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// FuzzEncode requires the encoder's bytes to be exactly json.Marshal's
// for any Request and Response, as values and as pointers, or its error
// text to be json.Marshal's when it refuses one (NaN, ±Inf). The seeds
// cover the formatting edges: −0, the 1e-6 and 1e21 switches to exponent
// notation and its e-07 → e-7 clean-up, and text encoding/json escapes
// (<, >, &, quotes, backslashes, control bytes, U+2028, invalid UTF-8).
func FuzzEncode(f *testing.F) {
	f.Add(1, uint64(1), 0, "admit", "voice", 60.0, 10.0, 0.0, false)
	f.Add(1, uint64(4711), 18, "release", "video", 87.25391827418273, -179.99999999999997, 0.6180339887, true)
	f.Add(1, uint64(0), 3, "bsd: cell 3 overloaded: request queue full", "overloaded", 37.0, 40.0, 5.0, false)
	f.Add(0, uint64(math.MaxUint64), math.MinInt64, "", "", math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1), true)
	f.Add(-1, uint64(2), math.MaxInt64, "x", "y", 1e-7, 1e21, 1e20, false)
	f.Add(2, uint64(3), 1, "x", "y", 9.99999999e-7, 1e-6, 123456789e-300, true)
	f.Add(1, uint64(3), 1, "x", "y", 5e-324, math.MaxFloat64, -1e-100, true)
	f.Add(1, uint64(1), 0, "x", "y", math.NaN(), 1.0, 1.0, false)
	f.Add(1, uint64(1), 0, "x", "y", 1.0, math.Inf(1), 1.0, false)
	f.Add(1, uint64(1), 0, "x", "y", 1.0, 1.0, math.Inf(-1), false)
	f.Add(1, uint64(1), 0, "<script>", "a&b>c", 1.0, 2.0, 3.0, true)
	f.Add(1, uint64(1), 0, `say "hi"`, `C:\path`, 1.0, 2.0, 3.0, true)
	f.Add(1, uint64(1), 0, "tab\there\x00\x1f", "del\x7f", 1.0, 2.0, 3.0, true)
	f.Add(1, uint64(1), 0, "line\u2028sep\u2029", "caf\u00e9 \U0001F600", 1.0, 2.0, 3.0, true)
	f.Add(1, uint64(1), 0, "bad\xffutf8", "\xc3", 1.0, 2.0, 3.0, true)
	f.Fuzz(func(t *testing.T, v int, id uint64, cell int, s1, s2 string, x, y, z float64, flag bool) {
		req := Request{V: v, Op: Op(s1), ID: id, Cell: cell, Class: s2,
			SpeedKmh: x, AngleDeg: y, Handoff: flag, Priority: v ^ cell, MinBU: z}
		resp := Response{V: v, OK: flag, Err: s1, Code: s2, Cell: cell, Accept: !flag,
			Score: x, Outcome: s2, Allocated: y, Occupancy: z, Capacity: x, Scheme: s1}
		for _, msg := range []any{req, &req, resp, &resp} {
			checkEncode(t, msg)
		}
	})
}

// checkEncode requires Encode's output for msg to be json.Marshal's bytes
// and a newline, or json.Marshal's error with nothing written.
func checkEncode(t *testing.T, msg any) {
	t.Helper()
	var buf bytes.Buffer
	err := NewEncoder(&buf).Encode(msg)
	want, wantErr := json.Marshal(msg)
	if wantErr != nil {
		if err == nil || err.Error() != "wire: marshal: "+wantErr.Error() || buf.Len() != 0 {
			t.Fatalf("Encode(%#v) = %q, %v; json.Marshal: %v", msg, buf.Bytes(), err, wantErr)
		}
		return
	}
	if err != nil || buf.String() != string(want)+"\n" {
		t.Fatalf("Encode(%#v) = %q, %v\njson.Marshal: %s", msg, buf.Bytes(), err, want)
	}
}
