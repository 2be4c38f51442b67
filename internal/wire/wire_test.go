package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"facsp/internal/traffic"
)

func validAdmit() Request {
	return Request{V: Version, Op: OpAdmit, ID: 1, Class: "voice", SpeedKmh: 60, AngleDeg: 10}
}

func TestParseClass(t *testing.T) {
	tests := []struct {
		name    string
		want    traffic.Class
		wantErr bool
	}{
		{name: "text", want: traffic.Text},
		{name: "voice", want: traffic.Voice},
		{name: "video", want: traffic.Video},
		{name: "VOICE", wantErr: true},
		{name: "", wantErr: true},
		{name: "fax", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseClass(tt.name)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseClass(%q) error = %v", tt.name, err)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseClass(%q) = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestRequestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mut     func(*Request)
		wantErr bool
	}{
		{name: "valid admit", mut: func(*Request) {}},
		{name: "valid release", mut: func(r *Request) { r.Op = OpRelease }},
		{name: "valid status", mut: func(r *Request) { *r = Request{V: Version, Op: OpStatus} }},
		{name: "wrong version", mut: func(r *Request) { r.V = 2 }, wantErr: true},
		{name: "zero version", mut: func(r *Request) { r.V = 0 }, wantErr: true},
		{name: "bad op", mut: func(r *Request) { r.Op = "reboot" }, wantErr: true},
		{name: "bad class", mut: func(r *Request) { r.Class = "fax" }, wantErr: true},
		{name: "negative speed", mut: func(r *Request) { r.SpeedKmh = -5 }, wantErr: true},
		{name: "negative priority", mut: func(r *Request) { r.Priority = -1 }, wantErr: true},
		{name: "valid cell", mut: func(r *Request) { r.Cell = 6 }},
		{name: "negative cell", mut: func(r *Request) { r.Cell = -1 }, wantErr: true},
		{name: "negative min bandwidth", mut: func(r *Request) { r.MinBU = -2 }, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := validAdmit()
			tt.mut(&r)
			err := r.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestCACRequest(t *testing.T) {
	r := validAdmit()
	r.Handoff = true
	r.Priority = 2
	req, err := r.CACRequest()
	if err != nil {
		t.Fatal(err)
	}
	if req.Bandwidth != 5 || !req.RealTime || !req.Handoff || req.Priority != 2 || req.ID != 1 {
		t.Errorf("CACRequest = %+v", req)
	}
	r.Class = "bogus"
	if _, err := r.CACRequest(); err == nil {
		t.Error("bogus class accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	want := []Request{
		validAdmit(),
		{V: Version, Op: OpStatus},
		{V: Version, Op: OpRelease, ID: 9, Class: "video"},
	}
	for _, r := range want {
		if err := enc.Encode(r); err != nil {
			t.Fatalf("Encode: %v", err)
		}
	}
	dec := NewDecoder(&buf)
	for i := range want {
		var got Request
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("Decode %d: %v", i, err)
		}
		if got != want[i] {
			t.Errorf("message %d = %+v, want %+v", i, got, want[i])
		}
	}
	var extra Request
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	dec := NewDecoder(strings.NewReader("{not json}\n"))
	var r Request
	if err := dec.Decode(&r); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestDecodeBoundedLine(t *testing.T) {
	// A single line beyond the 64 KiB bound must fail rather than grow
	// without limit.
	huge := strings.Repeat("x", 128<<10)
	dec := NewDecoder(strings.NewReader(huge))
	var r Request
	if err := dec.Decode(&r); err == nil {
		t.Error("oversized line accepted")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	want := Response{V: Version, OK: true, Accept: true, Score: 0.42, Outcome: "WA", Occupancy: 12, Capacity: 40, Scheme: "FACS-P"}
	if err := enc.Encode(want); err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Response = %+v, want %+v", got, want)
	}
}

// TestCellFieldBackwardCompatible pins the v1 extension contract: a
// pre-extension request (no "cell" key) decodes to cell 0 and validates,
// and cell-0 responses do not emit the key, so old clients never see it.
func TestCellFieldBackwardCompatible(t *testing.T) {
	legacy := `{"v":1,"op":"admit","id":1,"class":"voice","speed_kmh":60}` + "\n"
	var req Request
	if err := NewDecoder(strings.NewReader(legacy)).Decode(&req); err != nil {
		t.Fatal(err)
	}
	if req.Cell != 0 {
		t.Errorf("legacy request decoded to cell %d, want 0", req.Cell)
	}
	if err := req.Validate(); err != nil {
		t.Errorf("legacy request rejected: %v", err)
	}

	var buf bytes.Buffer
	if err := NewEncoder(&buf).Encode(Response{V: Version, OK: true, Capacity: 40}); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cell", "code"} {
		if strings.Contains(buf.String(), `"`+key+`"`) {
			t.Errorf("cell-0 success response leaks the %q key to old clients: %s", key, buf.String())
		}
	}
}

// TestOverloadedResponseRoundTrip covers the shed reply: the
// machine-readable code survives the wire and addresses its cell.
func TestOverloadedResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := Response{V: Version, OK: false, Err: "queue full", Code: CodeOverloaded, Cell: 3, Occupancy: 37, Capacity: 40}
	if err := NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Response = %+v, want %+v", got, want)
	}
}

// flakyWriter writes half of its first line, fails, then accepts
// everything.
type flakyWriter struct {
	bytes.Buffer
	failed bool
}

func (w *flakyWriter) Write(p []byte) (int, error) {
	if !w.failed {
		w.failed = true
		n, _ := w.Buffer.Write(p[:len(p)/2])
		return n, errors.New("link down")
	}
	return w.Buffer.Write(p)
}

// TestEncodeErrorIsSticky pins the framing guarantee: after a write fails
// part-way through a line, the encoder writes nothing more, so the torn
// line is never glued to the next message.
func TestEncodeErrorIsSticky(t *testing.T) {
	var w flakyWriter
	enc := NewEncoder(&w)
	first := enc.Encode(validAdmit())
	if first == nil {
		t.Fatal("failed write not reported")
	}
	torn := w.Len()
	if err := enc.Encode(validAdmit()); err != first {
		t.Errorf("second Encode = %v, want the first error %v", err, first)
	}
	if w.Len() != torn {
		t.Errorf("encoder wrote %q after a failed write", w.Bytes()[torn:])
	}
}
