package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// fuzzEvalResponse builds an EvalResponse from fuzz inputs: formulas is
// split on the record separator (0x1e) and cycled, each shape byte makes
// one verdict (bits 0-1: marked nil/true/false, bits 2-3: worlds nil,
// empty or drawn), and worlds is a stream of varints the drawn world lists
// consume, so they cover negative and extreme ints.
func fuzzEvalResponse(session string, link int64, formulas string, shape, worlds []byte) EvalResponse {
	r := EvalResponse{Session: session, Link: int(link)}
	if len(shape) == 0 {
		return r // nil verdicts encode as null
	}
	parts := strings.Split(formulas, "\x1e")
	r.Verdicts = make([]Verdict, 0, len(shape))
	for i, b := range shape {
		v := Verdict{Formula: parts[i%len(parts)], Count: int(link) * i}
		switch b & 3 {
		case 1, 2:
			holds := b&3 == 1
			v.Marked = &holds
		}
		switch b >> 2 & 3 {
		case 1:
			v.Worlds = WorldList{}
		case 2, 3:
			n := int(b>>4) + 1
			for j := 0; j < n && len(worlds) > 0; j++ {
				w, k := binary.Varint(worlds)
				if k <= 0 {
					worlds = nil
					break
				}
				worlds = worlds[k:]
				v.Worlds = append(v.Worlds, int(w))
			}
		}
		r.Verdicts = append(r.Verdicts, v)
	}
	return r
}

// FuzzEvalWire pins the eval wire format to encoding/json's: the appender
// writes json.NewEncoder's bytes, WorldList decodes exactly as a []int
// does, error for error, and ResessionEval changes the session and nothing
// else.
func FuzzEvalWire(f *testing.F) {
	f.Add("s1", int64(0), "K0 muddy1", []byte{0x05, 0x0a}, []byte{0, 2, 4}, []byte(`[0,1,2]`), "r1")
	f.Add("s3k-12", int64(7), "C (p & q)\x1ep < q\x1eE^2 p > D\tq", []byte{0x00, 0x06, 0x2b}, []byte{1, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, []byte(" [ -0 , null,\t9223372036854775807 ]\n"), "r99")
	f.Add("s1", int64(-1), "é ✓   \x7f", []byte{}, []byte{}, []byte(`null`), "r1")
	f.Add("s\"1", int64(3), "", []byte{0x04}, []byte{}, []byte(`[]`), "r\\2")
	f.Add("s2", int64(1), "\xff bad utf8", []byte{0x09}, []byte{}, []byte(`[1.5]`), "r2")
	f.Add("s2", int64(1), "p", []byte{0x01}, []byte{}, []byte(`[9223372036854775808]`), "r2")
	f.Add("s2", int64(1), "p", []byte{0x01}, []byte{}, []byte(`[1e2, "1", 01]`), "r2")
	f.Add("s2", int64(1), "p", []byte{0x01}, []byte{}, []byte(`[1,]`), "r2")

	f.Fuzz(func(t *testing.T, session string, link int64, formulas string, shape, worlds, raw []byte, routerID string) {
		resp := fuzzEvalResponse(session, link, formulas, shape, worlds)

		// 1. The appender writes encoding/json's bytes.
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		body := AppendEvalResponse(nil, resp)
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("AppendEvalResponse:\n got %q\nwant %q", body, want.Bytes())
		}

		// 2. WorldList decodes like []int, error for error, both through
		// encoding/json and called directly.
		var ints []int
		intsErr := json.Unmarshal(raw, &ints)
		var viaJSON, direct WorldList
		viaErr := json.Unmarshal(raw, &viaJSON)
		directErr := direct.UnmarshalJSON(raw)
		for name, got := range map[string]struct {
			wl  WorldList
			err error
		}{"json.Unmarshal": {viaJSON, viaErr}, "UnmarshalJSON": {direct, directErr}} {
			if (got.err == nil) != (intsErr == nil) {
				t.Fatalf("%s of %q: err %v, []int err %v", name, raw, got.err, intsErr)
			}
			if intsErr == nil && !reflect.DeepEqual([]int(got.wl), ints) {
				t.Fatalf("%s of %q: %#v, []int %#v", name, raw, []int(got.wl), ints)
			}
		}

		// 3. ResessionEval swaps the session value and keeps every other
		// byte; a body for another session, or arbitrary bytes, is refused
		// unless it really starts with the session prefix.
		out, err := ResessionEval(body, session, routerID)
		if err != nil {
			t.Fatalf("ResessionEval: %v", err)
		}
		resp.Session = routerID
		want.Reset()
		json.NewEncoder(&want).Encode(resp)
		if !bytes.Equal(out, want.Bytes()) {
			t.Fatalf("ResessionEval:\n got %q\nwant %q", out, want.Bytes())
		}
		old := appendSessionPrefix(nil, session)
		if !bytes.Equal(old, appendSessionPrefix(nil, routerID)) { // invalid UTF-8 ids may encode alike
			if _, err := ResessionEval(out, session, routerID); err == nil {
				t.Fatalf("ResessionEval accepted a body for session %q as %q", routerID, session)
			}
		}
		if got, err := ResessionEval(raw, session, routerID); err == nil {
			if !bytes.HasPrefix(raw, old) || !bytes.Equal(got, append(appendSessionPrefix(nil, routerID), raw[len(old):]...)) {
				t.Fatalf("ResessionEval(%q) = %q", raw, got)
			}
		} else if bytes.HasPrefix(raw, old) {
			t.Fatalf("ResessionEval refused %q: %v", raw, err)
		}
	})
}
