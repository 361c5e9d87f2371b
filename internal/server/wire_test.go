package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/bitset"
)

// fuzzEvalResponse builds an EvalResponse from fuzz inputs: formulas is
// split on the record separator (0x1e) and cycled, each shape byte makes
// one verdict (bits 0-1: marked nil/true/false, bits 2-3: worlds nil,
// empty or drawn), and worlds is a stream of uvarint gaps the drawn world
// sets consume, so every set is sorted, distinct and non-negative, as a
// denotation's elements are.
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
			v.Worlds = Worlds{}
		case 2, 3:
			n, w := int(b>>4)+1, -1
			for j := 0; j < n && len(worlds) > 0; j++ {
				gap, k := binary.Uvarint(worlds)
				if k <= 0 {
					worlds = nil
					break
				}
				worlds = worlds[k:]
				w += 1 + int(gap%(1<<12))
				v.Worlds = append(v.Worlds, w)
			}
		}
		r.Verdicts = append(r.Verdicts, v)
	}
	return r
}

// worldSets is r's world sets as bitsets over a universe one word past
// the largest world, as knowd hands them to the appender.
func worldSets(r EvalResponse) []*bitset.Set {
	sets := make([]*bitset.Set, len(r.Verdicts))
	for i, v := range r.Verdicts {
		n := 64
		if k := len(v.Worlds); k > 0 {
			n += v.Worlds[k-1] + 1
		}
		sets[i] = bitset.New(n)
		for _, w := range v.Worlds {
			sets[i].Add(w)
		}
	}
	return sets
}

// omitEmptyWorlds is r as its encoding carries it: omitempty drops an
// empty world list, which therefore decodes as nil.
func omitEmptyWorlds(r EvalResponse) EvalResponse {
	if r.Verdicts != nil {
		r.Verdicts = slices.Clone(r.Verdicts)
	}
	for i := range r.Verdicts {
		if len(r.Verdicts[i].Worlds) == 0 {
			r.Verdicts[i].Worlds = nil
		}
	}
	return r
}

func validUTF8(r EvalResponse) bool {
	for _, v := range r.Verdicts {
		if !utf8.ValidString(v.Formula) {
			return false
		}
	}
	return utf8.ValidString(r.Session)
}

// checkDecodeLikeJSON asserts that DecodeEvalResponse decodes data to the
// value json.Unmarshal gives, or fails with the same error.
func checkDecodeLikeJSON(t *testing.T, data []byte) {
	t.Helper()
	var got, want EvalResponse
	gotErr := DecodeEvalResponse(data, &got)
	wantErr := json.Unmarshal(data, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("DecodeEvalResponse(%q): err %v, json.Unmarshal err %v", data, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeEvalResponse(%q):\n got %#v\nwant %#v", data, got, want)
	}
}

// FuzzEvalWire pins the eval wire format to encoding/json's: the appender
// writes json.NewEncoder's bytes, from world lists and from knowd's
// bitsets alike, DecodeEvalResponse decodes exactly as json.Unmarshal
// does, error for error, and ResessionEval changes the session and
// nothing else.
func FuzzEvalWire(f *testing.F) {
	f.Add("s1", int64(0), "K0 muddy1", []byte{0x05, 0x0a}, []byte{0, 2, 4}, []byte(`[0,1,2]`), "r1")
	f.Add("s3k-12", int64(7), "C (p & q)\x1ep < q\x1eE^2 p > D\tq", []byte{0x00, 0x06, 0x2b}, []byte{1, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, []byte(" [ -0 , null,\t9223372036854775807 ]\n"), "r99")
	f.Add("s1", int64(-1), "é ✓   \x7f", []byte{}, []byte{}, []byte(`null`), "r1")
	f.Add("s\"1", int64(3), "", []byte{0x04}, []byte{}, []byte(`[]`), "r\\2")
	f.Add("s2", int64(1), "\xff bad utf8", []byte{0x09}, []byte{}, []byte(`[1.5]`), "r2")
	f.Add("s2", int64(1), "p", []byte{0x01}, []byte{}, []byte(`[9223372036854775808]`), "r2")
	f.Add("s2", int64(1), "p", []byte{0x01}, []byte{}, []byte(`[1e2, "1", 01]`), "r2")
	f.Add("s2", int64(1), "p", []byte{0x01}, []byte{}, []byte(`[1,]`), "r2")
	// World bitmaps off the canonical form: every one is json.Unmarshal's
	// to refuse or accept, and DecodeEvalResponse must follow it.
	for _, worlds := range []string{
		`"AQ=="`,    // padding
		`"AR"`,      // non-zero trailing bits
		`"AQA"`,     // a trailing zero byte
		`"-_8"`,     // the URL alphabet
		`""`,        // the empty string
		`"A\/8"`,    // an escaped alphabet byte
		`"\u0041Q"`, // a \u escape of one
		"\"AQ\n\"",  // a raw newline, which base64 alone would skip
		`null`,      // no set
		`[1,2]`,     // a decimal world list
	} {
		raw := `{"session":"s2","link":1,"verdicts":[{"formula":"p","count":2,"marked":true,"worlds":` + worlds + "}]}\n"
		f.Add("s2", int64(1), "p", []byte{0x09}, []byte{1, 0, 200, 1}, []byte(raw), "r2")
	}

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
		// knowd's path writes the same bytes from the sets' words.
		if got := appendEvalResponse(nil, resp, worldSets(resp)); !bytes.Equal(got, body) {
			t.Fatalf("appendEvalResponse from bitsets:\n got %q\nwant %q", got, body)
		}

		// 2. DecodeEvalResponse inverts the appender, up to what the
		// encoding loses (an empty world list is omitted, bad UTF-8 becomes
		// U+FFFD), and decodes any bytes exactly as json.Unmarshal does.
		if _, ok := (&evalDecoder{data: body}).response(); !ok {
			t.Fatalf("DecodeEvalResponse fell back to json.Unmarshal on the canonical %q", body)
		}
		var back EvalResponse
		if err := DecodeEvalResponse(body, &back); err != nil {
			t.Fatalf("DecodeEvalResponse(%q): %v", body, err)
		}
		if want := omitEmptyWorlds(resp); validUTF8(want) && !reflect.DeepEqual(back, want) {
			t.Fatalf("DecodeEvalResponse(%q):\n got %#v\nwant %#v", body, back, want)
		}
		checkDecodeLikeJSON(t, body)
		checkDecodeLikeJSON(t, raw)

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

// BenchmarkDecodeEvalResponse decodes a muddy:12-sized tower batch with
// world sets (16 verdicts of 1024 of 4096 worlds, about 12 KB): the
// one-pass decoder against json.Unmarshal.
func BenchmarkDecodeEvalResponse(b *testing.B) {
	r := EvalResponse{Session: "s3k-1", Link: 4}
	for i := range 16 {
		holds := i%2 == 0
		v := Verdict{Formula: fmt.Sprintf("E^%d (muddy0 -> K%d muddy%d)", i%3+1, i%12, i%12), Marked: &holds}
		for w := i % 4; w < 4096; w += 4 {
			v.Worlds = append(v.Worlds, w)
		}
		v.Count = len(v.Worlds)
		r.Verdicts = append(r.Verdicts, v)
	}
	body := AppendEvalResponse(nil, r)
	for name, decode := range map[string]func([]byte, *EvalResponse) error{
		"canonical": DecodeEvalResponse,
		"json":      func(data []byte, r *EvalResponse) error { return json.Unmarshal(data, r) },
	} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for range b.N {
				var out EvalResponse
				if err := decode(body, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWorldsBitmap pins the bitmap encoding of a few world sets, and that
// a list that is not a world set fails json.Marshal and panics the
// appender instead of writing some other set.
func TestWorldsBitmap(t *testing.T) {
	for _, c := range []struct {
		worlds Worlds
		wire   string
	}{
		{nil, `null`},
		{Worlds{0}, `"AQ"`},
		{Worlds{0, 1, 2}, `"Bw"`},
		{Worlds{8}, `"AAE"`},
		{Worlds{7, 15, 23}, `"gICA"`},
		{Worlds{63, 64}, `"AAAAAAAAAIAB"`},
	} {
		got, err := json.Marshal(c.worlds)
		if err != nil || string(got) != c.wire {
			t.Errorf("json.Marshal(%v) = %s, %v; want %s", c.worlds, got, err, c.wire)
		}
		var back Worlds
		if err := json.Unmarshal(got, &back); err != nil || !reflect.DeepEqual(back, c.worlds) {
			t.Errorf("json.Unmarshal(%s) = %v, %v; want %v", got, back, err, c.worlds)
		}
	}
	// Only the canonical spelling of a set decodes.
	for _, bad := range []string{
		`"AQ=="`, `"AR"`, `"AQA"`, `"-_8"`, `""`, `"A\/8"`, `"\u0041Q"`, `1`, `[1,2]`, `{}`,
	} {
		var back Worlds
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("json.Unmarshal(%s) = %v, want an error", bad, back)
		}
	}
	for _, bad := range []Worlds{{-1}, {2, 1}, {3, 3}, {maxWorld}} {
		if _, err := json.Marshal(bad); err == nil {
			t.Errorf("json.Marshal(%v) succeeded", bad)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendEvalResponse with worlds %v did not panic", bad)
				}
			}()
			AppendEvalResponse(nil, EvalResponse{Verdicts: []Verdict{{Worlds: bad}}})
		}()
	}
}
