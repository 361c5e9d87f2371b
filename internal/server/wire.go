package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// The eval wire format. A verdict batch is the bulk of every byte knowd
// serves: a world list per formula when the client asks for denotations.
// This file owns that format end to end — knowd encodes it with
// AppendEvalResponse, a relay re-labels it with ResessionEval without
// decoding it, and a client decodes its world lists through WorldList —
// so no layer reflects over world lists. The bytes are exactly what
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

// WorldList is a verdict's denotation: the indices of the worlds where the
// formula holds, ascending. It decodes in one pass over the JSON array and
// accepts exactly what encoding/json accepts for a []int: whitespace,
// null (a nil list) and null elements (zero); floats, exponents, other
// types and out-of-range integers are errors.
type WorldList []int

// UnmarshalJSON implements json.Unmarshaler.
func (wl *WorldList) UnmarshalJSON(data []byte) error {
	i := skipSpace(data, 0)
	if bytes.HasPrefix(data[i:], []byte("null")) && skipSpace(data, i+4) == len(data) {
		*wl = nil
		return nil
	}
	if i == len(data) || data[i] != '[' {
		return worldListErr(data, i)
	}
	out := make([]int, 0, bytes.Count(data, []byte{','})+1)
	if i = skipSpace(data, i+1); i < len(data) && data[i] == ']' {
		i++
	} else {
		for {
			if bytes.HasPrefix(data[i:], []byte("null")) {
				out = append(out, 0)
				i += 4
			} else {
				n, next, ok := parseInt(data, i)
				if !ok {
					return worldListErr(data, i)
				}
				out = append(out, n)
				i = next
			}
			if i = skipSpace(data, i); i == len(data) {
				return worldListErr(data, i)
			}
			if data[i] == ']' {
				i++
				break
			}
			if data[i] != ',' {
				return worldListErr(data, i)
			}
			i = skipSpace(data, i+1)
		}
	}
	if skipSpace(data, i) != len(data) {
		return worldListErr(data, i)
	}
	*wl = out
	return nil
}

func worldListErr(data []byte, i int) error {
	return fmt.Errorf("server: world list: not a JSON array of ints at offset %d of %d", i, len(data))
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
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
