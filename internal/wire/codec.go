package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Encoder writes newline-delimited JSON messages.
type Encoder struct {
	w   io.Writer
	buf []byte // the line being built; reused across messages
	// slow is set while a Request or Response is appended when one of its
	// values needs bytes the field appenders do not produce (NaN, ±Inf,
	// text that encoding/json escapes).
	slow bool
	// err is the first write error; every later Encode returns it, so a
	// line cut short by a failed write is never followed by another.
	err error
}

// NewEncoder wraps w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Encode writes one message as one line, in a single Write. Request and
// Response values and pointers are appended field by field into a reused
// buffer; any other value, and any message the appenders cannot render
// byte for byte, is marshalled by encoding/json.
func (e *Encoder) Encode(v any) error {
	if e.err != nil {
		return e.err
	}
	e.buf, e.slow = e.buf[:0], true
	switch m := v.(type) {
	case Request:
		e.request(&m)
	case *Request:
		if m != nil {
			e.request(m)
		}
	case Response:
		e.response(&m)
	case *Response:
		if m != nil {
			e.response(m)
		}
	}
	if e.slow {
		b, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("wire: marshal: %w", err)
		}
		e.buf = append(e.buf[:0], b...)
	}
	e.buf = append(e.buf, '\n')
	_, e.err = e.w.Write(e.buf)
	return e.err
}

// request appends r in encoding/json's layout: struct field order, with
// omitempty fields left out at their zero value.
func (e *Encoder) request(r *Request) {
	e.slow = false
	e.raw(`{"v":`)
	e.int(r.V)
	e.raw(`,"op":`)
	e.str(string(r.Op))
	if r.ID != 0 {
		e.raw(`,"id":`)
		e.buf = strconv.AppendUint(e.buf, r.ID, 10)
	}
	if r.Cell != 0 {
		e.raw(`,"cell":`)
		e.int(r.Cell)
	}
	if r.Class != "" {
		e.raw(`,"class":`)
		e.str(r.Class)
	}
	if r.SpeedKmh != 0 {
		e.raw(`,"speed_kmh":`)
		e.float(r.SpeedKmh)
	}
	if r.AngleDeg != 0 {
		e.raw(`,"angle_deg":`)
		e.float(r.AngleDeg)
	}
	if r.Handoff {
		e.raw(`,"handoff":true`)
	}
	if r.Priority != 0 {
		e.raw(`,"priority":`)
		e.int(r.Priority)
	}
	if r.MinBU != 0 {
		e.raw(`,"min_bu":`)
		e.float(r.MinBU)
	}
	e.raw(`}`)
}

// response appends r the way request appends a Request.
func (e *Encoder) response(r *Response) {
	e.slow = false
	e.raw(`{"v":`)
	e.int(r.V)
	if r.OK {
		e.raw(`,"ok":true`)
	} else {
		e.raw(`,"ok":false`)
	}
	if r.Err != "" {
		e.raw(`,"err":`)
		e.str(r.Err)
	}
	if r.Code != "" {
		e.raw(`,"code":`)
		e.str(r.Code)
	}
	if r.Cell != 0 {
		e.raw(`,"cell":`)
		e.int(r.Cell)
	}
	if r.Accept {
		e.raw(`,"accept":true`)
	}
	if r.Score != 0 {
		e.raw(`,"score":`)
		e.float(r.Score)
	}
	if r.Outcome != "" {
		e.raw(`,"outcome":`)
		e.str(r.Outcome)
	}
	if r.Allocated != 0 {
		e.raw(`,"allocated":`)
		e.float(r.Allocated)
	}
	e.raw(`,"occupancy":`)
	e.float(r.Occupancy)
	e.raw(`,"capacity":`)
	e.float(r.Capacity)
	if r.Scheme != "" {
		e.raw(`,"scheme":`)
		e.str(r.Scheme)
	}
	e.raw(`}`)
}

func (e *Encoder) raw(s string) { e.buf = append(e.buf, s...) }

func (e *Encoder) int(v int) { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }

// str appends s quoted when encoding/json would copy it verbatim: ASCII
// from space to DEL, less the quote, the backslash and the HTML-escaped
// <, > and &. Any other byte sets slow.
func (e *Encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.slow = true
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// float appends f as encoding/json does (ES6 number formatting): 'f'
// notation, or 'e' outside [1e-6, 1e21) with the exponent's leading zero
// removed. NaN and ±Inf set slow; encoding/json rejects them.
func (e *Encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.slow = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		n := len(e.buf)
		if n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

// Decoder reads newline-delimited JSON messages with a bounded line size
// (64 KiB) so a misbehaving peer cannot exhaust server memory.
type Decoder struct {
	s *bufio.Scanner
	// strs holds the short op, class, code, outcome and scheme values
	// decoded so far, so a repeated value costs no allocation.
	strs []string
}

// A Decoder keeps at most maxInterned strings of at most maxInternLen
// bytes for reuse, so a session pins at most 512 bytes of peer-chosen
// text. The vocabulary is a few short ops, classes, outcomes and scheme
// names; a longer or further distinct value is decoded but not kept.
const (
	maxInterned  = 32
	maxInternLen = 16
)

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 4096), 64<<10)
	return &Decoder{s: s}
}

// Decode reads one message into v. It returns io.EOF at end of stream.
//
// A line decoded into a *Request or *Response is parsed in one pass when
// it is a flat object of the message's own keys with plain ASCII strings,
// JSON numbers that fit their fields, true and false. Such a line sets
// exactly the fields json.Unmarshal would set, to the same values. Every
// other line, and every other type, goes to json.Unmarshal.
func (d *Decoder) Decode(v any) error {
	if !d.s.Scan() {
		if err := d.s.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	line := d.s.Bytes()
	switch m := v.(type) {
	case *Request:
		if m != nil {
			orig := *m
			if d.request(line, m) {
				return nil
			}
			*m = orig
		}
	case *Response:
		if m != nil {
			orig := *m
			if d.response(line, m) {
				return nil
			}
			*m = orig
		}
	}
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("wire: unmarshal %q: %w", d.s.Text(), err)
	}
	return nil
}

// request decodes line into r. It reports false, with r partly
// overwritten, when the line leaves the fast grammar.
func (d *Decoder) request(line []byte, r *Request) bool {
	l := lexer{b: line}
	if !l.eat('{') {
		return false
	}
	for first := true; l.next(first); first = false {
		switch string(l.key()) {
		case "v":
			r.V = l.int()
		case "op":
			r.Op = Op(d.str(&l))
		case "id":
			r.ID = l.uint()
		case "cell":
			r.Cell = l.int()
		case "class":
			r.Class = d.str(&l)
		case "speed_kmh":
			r.SpeedKmh = l.float()
		case "angle_deg":
			r.AngleDeg = l.float()
		case "handoff":
			r.Handoff = l.bool()
		case "priority":
			r.Priority = l.int()
		case "min_bu":
			r.MinBU = l.float()
		default:
			l.bad = true
		}
		if l.bad {
			return false
		}
	}
	return l.end()
}

// response decodes line into r, as request does.
func (d *Decoder) response(line []byte, r *Response) bool {
	l := lexer{b: line}
	if !l.eat('{') {
		return false
	}
	for first := true; l.next(first); first = false {
		switch string(l.key()) {
		case "v":
			r.V = l.int()
		case "ok":
			r.OK = l.bool()
		case "err":
			// Error texts vary with the request; they are not kept.
			if b := l.str(); !l.bad {
				r.Err = string(b)
			}
		case "code":
			r.Code = d.str(&l)
		case "cell":
			r.Cell = l.int()
		case "accept":
			r.Accept = l.bool()
		case "score":
			r.Score = l.float()
		case "outcome":
			r.Outcome = d.str(&l)
		case "allocated":
			r.Allocated = l.float()
		case "occupancy":
			r.Occupancy = l.float()
		case "capacity":
			r.Capacity = l.float()
		case "scheme":
			r.Scheme = d.str(&l)
		default:
			l.bad = true
		}
		if l.bad {
			return false
		}
	}
	return l.end()
}

// str reads a string value, reusing an earlier identical one.
func (d *Decoder) str(l *lexer) string {
	b := l.str()
	if l.bad {
		return ""
	}
	for _, s := range d.strs {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	if len(s) <= maxInternLen && len(d.strs) < maxInterned {
		d.strs = append(d.strs, s)
	}
	return s
}

// lexer reads one line of the fast grammar: a flat JSON object whose keys
// and values are unescaped ASCII strings, JSON numbers, true or false,
// with JSON whitespace between tokens. Anything else sets bad, and the
// line goes to encoding/json.
type lexer struct {
	b   []byte
	i   int
	bad bool
}

func (l *lexer) skip() {
	for l.i < len(l.b) {
		if c := l.b[l.i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		l.i++
	}
}

// eat consumes c after optional whitespace and reports whether it was
// there.
func (l *lexer) eat(c byte) bool {
	l.skip()
	if l.i < len(l.b) && l.b[l.i] == c {
		l.i++
		return true
	}
	return false
}

// next reports whether another member follows: false at the closing
// brace, and false with bad set on anything but a comma between members.
func (l *lexer) next(first bool) bool {
	l.skip()
	if l.i < len(l.b) {
		switch c := l.b[l.i]; {
		case c == '}':
			l.i++
			return false
		case first:
			return true
		case c == ',':
			l.i++
			return true
		}
	}
	l.bad = true
	return false
}

// end reports whether the object closed cleanly with only whitespace
// after it.
func (l *lexer) end() bool {
	l.skip()
	return !l.bad && l.i == len(l.b)
}

// key reads a member's key and its colon.
func (l *lexer) key() []byte {
	k := l.str()
	if !l.eat(':') {
		l.bad = true
	}
	return k
}

// str reads a string of ASCII from space to DEL without quotes or
// backslashes, which JSON decodes to its own bytes.
func (l *lexer) str() []byte {
	if !l.eat('"') {
		l.bad = true
		return nil
	}
	rest := l.b[l.i:]
	for i, c := range rest {
		if c == '"' {
			l.i += i + 1
			return rest[:i]
		}
		if c < ' ' || c > 0x7f || c == '\\' {
			break
		}
	}
	l.bad = true
	return nil
}

func (l *lexer) bool() bool {
	l.skip()
	rest := l.b[l.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		l.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		l.i += 5
		return false
	}
	l.bad = true
	return false
}

// num reads a JSON number literal. strconv reads its value, as it does in
// json.Unmarshal; ParseInt and ParseUint reject a fraction or exponent.
func (l *lexer) num() []byte {
	l.skip()
	b, i := l.b, l.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	start := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == start || i-start > 1 && b[start] == '0' {
		l.bad = true
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		start = i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		if i == start {
			l.bad = true
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start = i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		if i == start {
			l.bad = true
			return nil
		}
	}
	lit := b[l.i:i]
	l.i = i
	return lit
}

// int reads an integer literal that fits int.
func (l *lexer) int() int {
	lit := l.num()
	if l.bad {
		return 0
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		l.bad = true
	}
	return int(v)
}

// uint reads a non-negative integer literal that fits uint64.
func (l *lexer) uint() uint64 {
	lit := l.num()
	if l.bad {
		return 0
	}
	v, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		l.bad = true
	}
	return v
}

// float reads a number literal; one out of float64 range sets bad.
func (l *lexer) float() float64 {
	lit := l.num()
	if l.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		l.bad = true
	}
	return f
}
