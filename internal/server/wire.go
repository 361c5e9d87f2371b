package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/bitset"
)

// The eval wire format. A verdict batch is the bulk of every byte knowd
// serves: a world set per formula when the client asks for denotations,
// carried as a base64 bitmap (Worlds). This file owns that format end to
// end — knowd encodes it with AppendEvalResponse, a relay re-labels it
// with ResessionEval without decoding it, and a client decodes it with
// DecodeEvalResponse — so no layer reflects over world sets. The bytes
// are exactly what encoding/json writes for an EvalResponse.

// MaxResponseBytes caps the body of every knowd response a client reads.
// knowd refuses with 422 an eval response that would not fit (less
// resessionHeadroom), so a body at the cap is never a truncated one.
const MaxResponseBytes = 1 << 22

// resessionHeadroom is the room knowd leaves under MaxResponseBytes for a
// relay to swap in a longer session id (ResessionEval): a quoted router
// id of any int64 sequence number fits in it.
const resessionHeadroom = 64

// AppendEvalResponse appends r's JSON encoding to dst: byte for byte what
// json.NewEncoder writes for r, trailing newline included. Where
// json.Marshal fails — a verdict whose Worlds is not a world set (see
// Worlds) — it panics.
func AppendEvalResponse(dst []byte, r EvalResponse) []byte {
	return appendEvalResponse(dst, r, nil)
}

// appendEvalResponse is AppendEvalResponse with verdict i's world set
// read from sets[i] when sets is non-nil, in place of its Worlds: knowd
// writes each bitmap straight from the denotation's bitset words.
func appendEvalResponse(dst []byte, r EvalResponse, sets []*bitset.Set) []byte {
	dst = slices.Grow(dst, evalResponseSize(r, sets))
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
			var words []uint64
			if sets != nil {
				words = sets[i].Words()
			} else {
				var err error
				if words, err = v.Worlds.words(); err != nil {
					panic(err)
				}
			}
			dst = appendVerdict(dst, v, words)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// evalResponseSize estimates r's encoded size, so the appender grows its
// buffer once: exact for ASCII formulas that need no escaping, with a
// bitmap from sets counted at its universe's size, an upper bound.
func evalResponseSize(r EvalResponse, sets []*bitset.Set) int {
	n := len(`{"session":"","link":,"verdicts":[]}`+"\n") + len(r.Session) + 20
	for i, v := range r.Verdicts {
		n += len(`{"formula":"","count":,"marked":false},`) + len(v.Formula) + 20
		nb := 0
		if sets != nil {
			nb = (sets[i].Cap() + 7) / 8
		} else if k := len(v.Worlds); k > 0 {
			nb = max(v.Worlds[k-1], 0)/8 + 1
		}
		if nb > 0 {
			n += len(`,"worlds":""`) + bitmapEncoding.EncodedLen(nb)
		}
	}
	return n
}

// appendVerdict appends v with the world set whose bitset words are words
// (omitted when empty, as omitempty drops an empty Worlds).
func appendVerdict(dst []byte, v Verdict, words []uint64) []byte {
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
	if words = trimWords(words); len(words) > 0 {
		dst = append(dst, `,"worlds":`...)
		dst = appendBitmap(dst, words)
	}
	return append(dst, '}')
}

// Worlds is a verdict's world set: sorted, distinct, non-negative world
// ids. On the wire it is one JSON string, the unpadded standard base64 of
// an LSB-first bitmap (byte k, bit j is world 8k+j) with its trailing zero
// bytes trimmed, so a set over N worlds costs at most ⌈N/8⌉ bytes, about
// N/6 characters. Every set has one encoding: the decoder refuses
// padding, non-zero trailing bits, a trailing zero byte, the empty string,
// any byte outside the standard alphabet and any JSON escape. The empty
// set is omitted from a Verdict, and marshals on its own as null.
type Worlds []int

// bitmapEncoding is the world bitmap's base64: strict, so the unused
// low bits of a final partial group must be zero.
var bitmapEncoding = base64.RawStdEncoding.Strict()

// maxWorld bounds the world ids a bitmap may carry: a bitmap of a world
// at or past it could not fit in a response.
const maxWorld = 8 * MaxResponseBytes

var (
	errNotWorldSet = errors.New("server: worlds are not sorted, distinct world ids in [0, 8*MaxResponseBytes)")
	errBitmap      = errors.New("server: worlds are not a canonical base64 world bitmap")
)

// MarshalJSON writes w as its bitmap string, or null when w is empty.
func (w Worlds) MarshalJSON() ([]byte, error) {
	words, err := w.words()
	if err != nil {
		return nil, err
	}
	if len(words) == 0 {
		return []byte("null"), nil
	}
	return appendBitmap(nil, words), nil
}

// UnmarshalJSON reads a bitmap string; null leaves w as it is. The
// base64 alphabet needs no JSON escape, so a string holding one (say
// "A\/8") is not canonical and is refused.
func (w *Worlds) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	n := len(data)
	if n < 2 || data[0] != '"' || data[n-1] != '"' || bytes.IndexByte(data, '\\') >= 0 {
		return errBitmap
	}
	ws, err := decodeBitmap(data[1:n-1], 0)
	if err != nil {
		return err
	}
	*w = ws
	return nil
}

// words returns w's bitset words, or errNotWorldSet.
func (w Worlds) words() ([]uint64, error) {
	prev := -1
	for _, id := range w {
		if id <= prev {
			return nil, errNotWorldSet
		}
		prev = id
	}
	if prev >= maxWorld {
		return nil, errNotWorldSet
	}
	if prev < 0 {
		return nil, nil
	}
	words := make([]uint64, prev/64+1)
	for _, id := range w {
		words[id/64] |= 1 << (id % 64)
	}
	return words, nil
}

// trimWords drops the trailing zero words of a bitset.
func trimWords(words []uint64) []uint64 {
	for len(words) > 0 && words[len(words)-1] == 0 {
		words = words[:len(words)-1]
	}
	return words
}

// appendBitmap appends the quoted bitmap string of words, whose last word
// must be non-zero. The bytes go through base64 in 48-byte chunks (a
// multiple of 3, so the chunks' encodings concatenate to the whole's)
// without an intermediate copy of the bitmap.
func appendBitmap(dst []byte, words []uint64) []byte {
	n := 8*len(words) - bits.LeadingZeros64(words[len(words)-1])/8
	dst = append(dst, '"')
	var buf [48]byte
	for off := 0; off < n; off += len(buf) {
		k := min(len(buf), n-off)
		for i := 0; i < k; i += 8 {
			binary.LittleEndian.PutUint64(buf[i:], words[(off+i)/8])
		}
		dst = bitmapEncoding.AppendEncode(dst, buf[:k])
	}
	return append(dst, '"')
}

// decodeBitmap expands the bitmap string src (without its quotes) into
// sorted world ids, presizing the list for hint of them (a verdict's
// count, capped by what src can hold). It decodes src in 64-character
// chunks, each into 48 bytes on the stack.
func decodeBitmap(src []byte, hint int) (Worlds, error) {
	if len(src) == 0 {
		return nil, errBitmap
	}
	out := make(Worlds, 0, min(max(hint, 0), 6*len(src)))
	var buf [48]byte
	for base := 0; len(src) > 0; base += 8 * len(buf) {
		chunk := src[:min(len(src), 64)]
		src = src[len(chunk):]
		// Base64 decoding skips CR and LF, which a canonical bitmap does
		// not hold: a chunk with either decodes short.
		k, err := bitmapEncoding.Decode(buf[:], chunk)
		if err != nil || k != bitmapEncoding.DecodedLen(len(chunk)) || (len(src) == 0 && buf[k-1] == 0) {
			return nil, errBitmap
		}
		clear(buf[k:])
		for i := 0; i < k; i += 8 {
			for w := binary.LittleEndian.Uint64(buf[i:]); w != 0; w &= w - 1 {
				out = append(out, base+8*i+bits.TrailingZeros64(w))
			}
		}
	}
	return out, nil
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
// "worlds" only as a canonical bitmap, expanded into a list presized from
// "count", and a trailing "}\n". A string holding a backslash (or bytes
// that are not UTF-8) is unquoted by encoding/json on its own. Any other
// deviation — reordered, duplicate or case-variant keys, whitespace,
// non-canonical numbers or bitmaps, trailing bytes — hands the whole body
// to json.Unmarshal, so the result always equals json.Unmarshal's into a
// zero EvalResponse, error for error.
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
	if d.lit(`,"worlds":"`) {
		if v.Worlds, ok = d.worlds(v.Count); !ok {
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

// worlds reads a world bitmap string, its opening quote already consumed,
// and its closing quote; hint is the verdict's count.
func (d *evalDecoder) worlds(hint int) (Worlds, bool) {
	end := bytes.IndexByte(d.data[d.i:], '"')
	if end < 0 {
		return nil, false
	}
	ws, err := decodeBitmap(d.data[d.i:d.i+end], hint)
	if err != nil {
		return nil, false
	}
	d.i += end + 1
	return ws, true
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
