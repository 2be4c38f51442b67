package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
)

// The seeded counterparts of FuzzEncode and FuzzDecode*: random messages
// and random lines drawn from pools of the encoding/json edges, checked
// against json.Marshal and json.Unmarshal on every tier-1 run.

var (
	edgeFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 40, 37.5, 1e-7, -1e-7,
		9.99999999e-7, 1e-6, 1e20, 1e21, -1e21, 1.5e300, 5e-324, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), 0.1 + 0.2, 87.25391827418273,
		1<<53 - 1, -(1<<53 - 1), 1 << 53, 1<<53 + 2, 123456789012345, -5}
	edgeStrings = []string{"", "admit", "release", "status", "text", "voice", "video",
		"A", "WA", "degraded-others", "FACS-P", "overloaded",
		"bsd: cell 3 overloaded: request queue full", "<", ">", "&", `"`, `\`,
		"\x00", "\t", "\n", "\x1f", "\x7f", " ", " ", "\xff", "\xc3", "é", "\U0001F600"}
	edgeInts = []int{0, 1, -1, 2, 18, math.MaxInt64, math.MinInt64}
)

func pick[T any](r *rand.Rand, pool []T) T { return pool[r.IntN(len(pool))] }

func randFloat(r *rand.Rand) float64 {
	switch r.IntN(4) {
	case 0:
		return pick(r, edgeFloats)
	case 1:
		return math.Float64frombits(r.Uint64())
	case 2:
		return 0
	}
	return (r.Float64()*2 - 1) * math.Pow(10, float64(r.IntN(50)-25))
}

func randString(r *rand.Rand) string {
	switch r.IntN(3) {
	case 0:
		return pick(r, edgeStrings)
	case 1:
		return ""
	}
	var b strings.Builder
	for n := r.IntN(12); n > 0; n-- {
		if r.IntN(8) == 0 {
			b.WriteString(pick(r, edgeStrings))
		} else {
			b.WriteByte(byte(' ' + r.IntN(95)))
		}
	}
	return b.String()
}

func randInt(r *rand.Rand) int {
	switch r.IntN(3) {
	case 0:
		return pick(r, edgeInts)
	case 1:
		return 0
	}
	return int(r.Int64()) >> r.IntN(64)
}

func TestEncodeMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 1))
	for i := 0; i < 20000; i++ {
		req := Request{V: randInt(r), Op: Op(randString(r)), ID: r.Uint64() >> r.IntN(65),
			Cell: randInt(r), Class: randString(r), SpeedKmh: randFloat(r), AngleDeg: randFloat(r),
			Handoff: r.IntN(2) == 0, Priority: randInt(r), MinBU: randFloat(r)}
		resp := Response{V: randInt(r), OK: r.IntN(2) == 0, Err: randString(r), Code: randString(r),
			Cell: randInt(r), Accept: r.IntN(2) == 0, Score: randFloat(r), Outcome: randString(r),
			Allocated: randFloat(r), Occupancy: randFloat(r), Capacity: randFloat(r), Scheme: randString(r)}
		for _, msg := range []any{req, &req, resp, &resp} {
			checkEncode(t, msg)
		}
	}
}

// The literals randLine draws a member's value from: the ones JSON
// decodes into each kind of field, and text that only resembles JSON.
var (
	intLits   = []string{"0", "1", "-1", "-0", "12", "9223372036854775807", "-9223372036854775808"}
	uintLits  = []string{"0", "1", "12", "4711", "18446744073709551615"}
	floatLits = []string{"0", "-0", "40", "1.5", "-0.0", "1e3", "1E-7", "1e+2", "4.9e-325", "0.1234567890123456789", "9007199254740993", "87.25391827418273", "-179.99999999999997",
		// More significant digits than a float64 holds exactly.
		"398.36064958888621", "-93.38779410273147844"}
	stringLits = []string{`"voice"`, `"admit"`, `"FACS-P"`, `""`, `"<&>"`, "\"\x7f\"", `"a b"`}
	boolLits   = []string{"true", "false"}
	otherLits  = []string{"012", "1.0", "1.", ".5", "1e", "-", "+1", "9223372036854775808",
		"-9223372036854775809", "18446744073709551616", "1e400", "null", "tru", "[]", "{}",
		`[1]`, `{"a":1}`, `"a\"b"`, `"é"`, `"\/"`, `"\u00e9"`, "\"é\"", "\"\xff\"", "\"\x01\"",
		`"unterminated`}
)

// fieldLits maps each key of a message to the literals of its field's kind.
func fieldLits(m any) map[string][]string {
	switch m.(type) {
	case Request:
		return map[string][]string{"v": intLits, "op": stringLits, "id": uintLits, "cell": intLits,
			"class": stringLits, "speed_kmh": floatLits, "angle_deg": floatLits, "handoff": boolLits,
			"priority": intLits, "min_bu": floatLits}
	default:
		return map[string][]string{"v": intLits, "ok": boolLits, "err": stringLits, "code": stringLits,
			"cell": intLits, "accept": boolLits, "score": floatLits, "outcome": stringLits,
			"allocated": floatLits, "occupancy": floatLits, "capacity": floatLits, "scheme": stringLits}
	}
}

// randLine builds a line around a flat object over the message's keys:
// mostly values of each field's kind, sometimes any other literal, and
// now and then a broken key, separator or brace, with whitespace in
// random places.
func randLine(r *rand.Rand, keys []string, lits map[string][]string) string {
	ws := func() string { return pick(r, []string{"", "", "", " ", "\t", "\r", " \t"}) }
	var b strings.Builder
	b.WriteString(ws())
	if r.IntN(40) != 0 {
		b.WriteByte('{')
	}
	for n := r.IntN(6); n > 0; n-- {
		key := pick(r, keys)
		value := pick(r, lits[key])
		switch r.IntN(12) {
		case 0:
			value = pick(r, otherLits)
		case 1:
			value = pick(r, lits[pick(r, keys)])
		}
		switch r.IntN(30) {
		case 0:
			key = strings.ToUpper(key)
		case 1:
			key = "x"
		}
		b.WriteString(ws() + `"` + key + `"` + ws())
		if r.IntN(60) != 0 {
			b.WriteByte(':')
		}
		b.WriteString(ws() + value + ws())
		if n > 1 || r.IntN(60) == 0 {
			b.WriteByte(',')
		}
	}
	if r.IntN(40) != 0 {
		b.WriteByte('}')
	}
	if r.IntN(40) == 0 {
		b.WriteString(pick(r, []string{"x", "{}", ","}))
	}
	b.WriteString(ws())
	return b.String()
}

func TestDecodeMatchesUnmarshal(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 2))
	var d Decoder
	decodeMatchesUnmarshal(t, r, prefilledRequest, func(line []byte) bool {
		return d.request(line, new(Request))
	})
	decodeMatchesUnmarshal(t, r, prefilledResponse, func(line []byte) bool {
		return d.response(line, new(Response))
	})
}

// decodeMatchesUnmarshal runs random lines of message T through the
// differential decode; fast reports whether a line is in the fast grammar.
func decodeMatchesUnmarshal[T comparable](t *testing.T, r *rand.Rand, prefilled T, fast func([]byte) bool) {
	const lines = 20000
	var zero T
	lits := fieldLits(zero)
	keys := make([]string, 0, len(lits))
	for k := range lits {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var data bytes.Buffer
	inGrammar := 0
	for i := 0; i < lines; i++ {
		line := randLine(r, keys, lits)
		if fast([]byte(line)) {
			inGrammar++
		}
		data.WriteString(line + "\n")
	}
	t.Logf("%T: %d of %d lines in the fast grammar", zero, inGrammar, lines)
	// The lines must reach both sides of the fast grammar's border.
	if inGrammar < lines/10 || inGrammar > lines-lines/10 {
		t.Errorf("%T: %d of %d lines in the fast grammar; the generator no longer straddles it", zero, inGrammar, lines)
	}
	d := newDifferential(data.Bytes(), prefilled)
	for i := 0; i < lines; i++ {
		if _, err := d.decode(t); errors.Is(err, io.EOF) {
			t.Fatalf("%T: EOF after %d of %d lines", zero, i, lines)
		}
	}
	if _, err := d.decode(t); !errors.Is(err, io.EOF) {
		t.Errorf("%T: after %d lines: %v, want EOF", zero, lines, err)
	}
}

// A Decoder keeps only short strings for reuse, so distinct long values
// from a peer are decoded but pin no memory for the session.
func TestDecoderKeepsOnlyShortStrings(t *testing.T) {
	var data bytes.Buffer
	long := make([]string, maxInterned)
	for i := range long {
		long[i] = fmt.Sprintf("%0*d", 60<<10, i)
		fmt.Fprintf(&data, "{\"v\":1,\"op\":\"admit\",\"class\":\"%s\"}\n", long[i])
	}
	dec := NewDecoder(&data)
	for i, want := range long {
		var req Request
		if err := dec.Decode(&req); err != nil {
			t.Fatal(err)
		}
		if req.Op != OpAdmit || req.Class != want {
			t.Fatalf("line %d: decoded op %q and a class of %d bytes", i, req.Op, len(req.Class))
		}
	}
	if len(dec.strs) != 1 || dec.strs[0] != "admit" {
		t.Errorf("decoder keeps %d strings, want only %q", len(dec.strs), "admit")
	}
}
