package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The eval wire format. A verdict batch is the bulk of every byte knowd
// serves: a world list per formula when the client asks for denotations.
// This file owns that format end to end — knowd encodes it with
// AppendEvalResponse, a relay re-labels it with ResessionEval without
// decoding it, and a client decodes it with DecodeEvalResponse — so no
// layer reflects over world lists. The bytes are exactly what
// encoding/json writes for an EvalResponse.

// MaxResponseBytes caps the body of every knowd response a client reads.
// knowd refuses with 422 an eval response that would not fit (less
// resessionHeadroom), so a body at the cap is never a truncated one.
const MaxResponseBytes = 1 << 22

// resessionHeadroom is the room knowd leaves under MaxResponseBytes for a
// relay to swap in a longer session id (ResessionEval): a quoted router
// id of any int64 sequence number fits in it.
const resessionHeadroom = 64

// AppendEvalResponse appends r's JSON encoding to dst: byte for byte what
// json.NewEncoder writes for r, trailing newline included.
func AppendEvalResponse(dst []byte, r EvalResponse) []byte {
	dst = slices.Grow(dst, evalResponseSize(r))
	dst = appendSessionPrefix(dst, r.Session)
	dst = append(dst, `"link":`...)
	dst = strconv.AppendInt(dst, int64(r.Link), 10)
	dst = append(dst, `,"verdicts":`...)
	if r.Verdicts == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range r.Verdicts {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendVerdict(dst, v)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// evalResponseSize estimates r's encoded size, so the appender grows its
// buffer once: exact for ASCII formulas that need no escaping and world
// lists whose widest entry is the first or last.
func evalResponseSize(r EvalResponse) int {
	n := len(`{"session":"","link":,"verdicts":[]}`+"\n") + len(r.Session) + 20
	for _, v := range r.Verdicts {
		n += len(`{"formula":"","count":,"marked":false},`) + len(v.Formula) + 20
		if k := len(v.Worlds); k > 0 {
			w := max(intWidth(v.Worlds[0]), intWidth(v.Worlds[k-1]))
			n += len(`,"worlds":[]`) + k*(w+1)
		}
	}
	return n
}

// intWidth is the length of i in decimal, sign included.
func intWidth(i int) int {
	w := 1
	if i < 0 {
		w++
	}
	for ; i >= 10 || i <= -10; i /= 10 {
		w++
	}
	return w
}

func appendVerdict(dst []byte, v Verdict) []byte {
	dst = append(dst, `{"formula":`...)
	dst = appendString(dst, v.Formula)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(v.Count), 10)
	dst = append(dst, `,"marked":`...)
	switch {
	case v.Marked == nil:
		dst = append(dst, "null"...)
	case *v.Marked:
		dst = append(dst, "true"...)
	default:
		dst = append(dst, "false"...)
	}
	if len(v.Worlds) > 0 { // omitempty
		dst = append(dst, `,"worlds":[`...)
		for i, w := range v.Worlds {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(w), 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendSessionPrefix appends `{"session":<sid>,`, the fixed head of
// every eval response.
func appendSessionPrefix(dst []byte, sid string) []byte {
	dst = append(dst, `{"session":`...)
	return append(appendString(dst, sid), ',')
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json leaves alone is copied straight; anything else (quotes,
// backslashes, control bytes, the HTML-escaped & < >, non-ASCII) goes
// through json.Marshal, so the escaping is encoding/json's own.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// ResessionEval re-labels an eval response body for a relay: it replaces
// the leading `{"session":"<shardSID>",` with routerID's and keeps every
// other byte. A body that does not start with exactly that prefix is a
// protocol error; it is reported, never decoded.
func ResessionEval(body []byte, shardSID, routerID string) ([]byte, error) {
	old := appendSessionPrefix(make([]byte, 0, 32), shardSID)
	if !bytes.HasPrefix(body, old) {
		return nil, fmt.Errorf("server: eval response does not start with %s", old)
	}
	out := appendSessionPrefix(make([]byte, 0, len(body)-len(old)+len(routerID)+16), routerID)
	return append(out, body[len(old):]...), nil
}

// DecodeEvalResponse decodes an eval response body into *r, which it
// overwrites. It reads the exact layout AppendEvalResponse writes in one
// forward pass: keys in field order, "marked" as true, false or null,
// "worlds" only when non-empty, and a trailing "}\n". A string holding a
// backslash (or bytes that are not UTF-8) is unquoted by encoding/json on
// its own. Any other deviation — reordered, duplicate or case-variant
// keys, whitespace, non-canonical numbers, trailing bytes — hands the
// whole body to json.Unmarshal, so the result always equals
// json.Unmarshal's into a zero EvalResponse, error for error.
func DecodeEvalResponse(data []byte, r *EvalResponse) error {
	d := evalDecoder{data: data}
	if out, ok := d.response(); ok {
		*r = out
		return nil
	}
	*r = EvalResponse{}
	return json.Unmarshal(data, r)
}

// evalDecoder is DecodeEvalResponse's cursor over a canonical body. Every
// method reports false at the first byte that leaves the canonical
// layout; the caller then falls back to json.Unmarshal.
type evalDecoder struct {
	data []byte
	i    int
}

func (d *evalDecoder) response() (EvalResponse, bool) {
	var r EvalResponse
	var ok bool
	if !d.lit(`{"session":`) {
		return r, false
	}
	if r.Session, ok = d.str(); !ok || !d.lit(`,"link":`) {
		return r, false
	}
	if r.Link, ok = d.int(); !ok || !d.lit(`,"verdicts":`) {
		return r, false
	}
	if !d.lit("null") {
		if !d.lit("[") {
			return r, false
		}
		r.Verdicts = make([]Verdict, 0, 16) // a typical batch without regrowth
		for !d.lit("]") {
			if len(r.Verdicts) > 0 && !d.lit(",") {
				return r, false
			}
			v, ok := d.verdict()
			if !ok {
				return r, false
			}
			r.Verdicts = append(r.Verdicts, v)
		}
	}
	return r, d.lit("}\n") && d.i == len(d.data)
}

func (d *evalDecoder) verdict() (Verdict, bool) {
	var v Verdict
	var ok bool
	if !d.lit(`{"formula":`) {
		return v, false
	}
	if v.Formula, ok = d.str(); !ok || !d.lit(`,"count":`) {
		return v, false
	}
	if v.Count, ok = d.int(); !ok || !d.lit(`,"marked":`) {
		return v, false
	}
	switch {
	case d.lit("null"):
	case d.lit("true"):
		v.Marked = new(bool)
		*v.Marked = true
	case d.lit("false"):
		v.Marked = new(bool)
	default:
		return v, false
	}
	if d.lit(`,"worlds":[`) {
		if v.Worlds, ok = d.worlds(); !ok {
			return v, false
		}
	}
	return v, d.lit("}")
}

// lit consumes s if the body continues with it.
func (d *evalDecoder) lit(s string) bool {
	if len(d.data)-d.i < len(s) || string(d.data[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// str reads a JSON string. Printable ASCII and valid UTF-8 without a
// backslash is taken as is; anything else goes through encoding/json, one
// string at a time, so the unescaping and the U+FFFD substitution for
// bad UTF-8 are encoding/json's own.
func (d *evalDecoder) str() (string, bool) {
	data, start := d.data, d.i
	if start == len(data) || data[start] != '"' {
		return "", false
	}
	i, plain, ascii := start+1, true, true
	for ; i < len(data) && data[i] != '"'; i++ {
		switch c := data[i]; {
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot close the string
		case c < 0x20:
			return "", false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	if i >= len(data) {
		return "", false
	}
	d.i = i + 1
	raw := data[start+1 : i]
	if plain && (ascii || utf8.Valid(raw)) {
		return string(raw), true
	}
	var s string
	if json.Unmarshal(data[start:d.i], &s) != nil {
		return "", false
	}
	return s, true
}

func (d *evalDecoder) int() (int, bool) {
	n, next, ok := parseInt(d.data, d.i)
	d.i = next
	return n, ok
}

// fastDigits is the longest run of decimal digits that always fits in an
// int: 18 for a 64-bit int, 9 for a 32-bit one.
const fastDigits = 9 * strconv.IntSize / 32

// worlds reads the elements of a non-empty world list and its closing
// bracket into a list sized from the commas before the first ']'.
func (d *evalDecoder) worlds() ([]int, bool) {
	data, i := d.data, d.i
	end := bytes.IndexByte(data[i:], ']')
	if end < 0 {
		return nil, false
	}
	out := make([]int, 0, bytes.Count(data[i:i+end], []byte{','})+1)
	for {
		// Up to fastDigits digits without a sign or a leading zero cannot
		// overflow; anything else is parseInt's to judge.
		j, n := i, 0
		for ; j < len(data) && data[j]-'0' < 10; j++ {
			n = n*10 + int(data[j]-'0')
		}
		if k := j - i; k == 0 || k > fastDigits || (k > 1 && data[i] == '0') {
			var ok bool
			if n, j, ok = parseInt(data, i); !ok {
				return nil, false
			}
		}
		out = append(out, n)
		if j == len(data) {
			return nil, false
		}
		switch data[j] {
		case ',':
			i = j + 1
		case ']':
			d.i = j + 1
			return out, true
		default:
			return nil, false
		}
	}
}

// parseInt reads a JSON integer at data[i:], returning its value and the
// offset just past it. A fraction, an exponent, a malformed number or a
// value outside int's range fails.
func parseInt(data []byte, i int) (int, int, bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	if i == len(data) || data[i] < '0' || data[i] > '9' {
		return 0, i, false
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var n uint64
	if data[i] == '0' {
		i++ // JSON has no leading zeros: a digit after this is a syntax error
	} else {
		for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
			d := uint64(data[i] - '0')
			if n > (limit-d)/10 {
				return 0, i, false
			}
			n = n*10 + d
		}
	}
	if i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		return 0, i, false
	}
	if neg {
		return int(-n), i, true
	}
	return int(n), i, true
}
