package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// evalTap records, per shard, the last eval body each shard answered 200
// with, so a test can compare what the router relayed against it.
type evalTap struct {
	mu   sync.Mutex
	last map[string][]byte
}

func tapEvals(fleet map[string]*testShard) *evalTap {
	tap := &evalTap{last: make(map[string][]byte)}
	for id, sh := range fleet {
		id, inner := id, *sh.handler.Load()
		var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/eval") {
				inner.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			if rec.Code == http.StatusOK && rec.Body.Len() > 0 {
				tap.mu.Lock()
				tap.last[id] = bytes.Clone(rec.Body.Bytes())
				tap.mu.Unlock()
			}
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		})
		sh.handler.Store(&h)
	}
	return tap
}

func (tap *evalTap) take(shard string) []byte {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	b := tap.last[shard]
	delete(tap.last, shard)
	return b
}

// wantRelayed is the shard body with its session id swapped for the
// router's — the only difference a relay may make.
func wantRelayed(t *testing.T, shardBody []byte, shardSID, routerID string) []byte {
	t.Helper()
	old := []byte(`{"session":"` + shardSID + `",`)
	if !bytes.HasPrefix(shardBody, old) {
		t.Fatalf("shard body %.80q does not start with %s", shardBody, old)
	}
	return append([]byte(`{"session":"`+routerID+`",`), shardBody[len(old):]...)
}

// TestRouterRelaysEvalVerbatim: the eval body a client receives through
// the router is the answering shard's body byte for byte, except for the
// session id — with and without world sets, with the marked world
// eliminated, and when the standby's hedge answers.
func TestRouterRelaysEvalVerbatim(t *testing.T) {
	shards, fleet := newFleet(t, "n1", "n2")
	rt, _, rc := newTestRouter(t, Config{HedgeAfter: 2 * time.Millisecond}, shards)
	tap := tapEvals(fleet)

	st, err := rc.Open("muddy:3", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Announce(st.Session, "muddy0 | muddy1 | muddy2"); err != nil {
		t.Fatal(err)
	}
	cs := rt.lookup(st.Session)
	cs.mu.Lock()
	pl := cs.placementLocked()
	cs.mu.Unlock()
	if !pl.inSync {
		t.Fatalf("standby not in sync: %+v", pl)
	}

	// & < > in formulas are HTML-escaped on the wire, and relayed so.
	formulas := []string{"muddy0", "K0 muddy0 & ~muddy1", "C (muddy0 -> muddy1 <-> muddy2)"}
	relayed := func(worlds bool) []byte {
		t.Helper()
		req, err := json.Marshal(server.EvalRequest{Formulas: formulas, Worlds: worlds})
		if err != nil {
			t.Fatal(err)
		}
		body, err := rc.EvalRawCtx(context.Background(), st.Session, req)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	// fromShard reports whether got is the body a shard answered the last
	// eval with, relabeled: the primary's, or the standby's when a slow
	// primary let the hedge win.
	fromShard := func(got []byte) bool {
		p, s := tap.take(pl.primary), tap.take(pl.standby)
		return (p != nil && bytes.Equal(got, wantRelayed(t, p, pl.primarySID, st.Session))) ||
			(s != nil && bytes.Equal(got, wantRelayed(t, s, pl.standbySID, st.Session)))
	}
	for _, worlds := range []bool{false, true} {
		got := relayed(worlds)
		if !fromShard(got) {
			t.Fatalf("worlds=%v: relayed\n%s\nnot a shard's body", worlds, got)
		}
		if worlds != bytes.Contains(got, []byte(`"worlds":"`)) {
			t.Fatalf("worlds=%v: body %s", worlds, got)
		}
	}

	// Eliminate the marked world: announce the negation of a fact that
	// holds there. Every verdict then carries "marked":null.
	resp, err := rc.Eval(st.Session, server.EvalRequest{Formulas: []string{"muddy0"}})
	if err != nil {
		t.Fatal(err)
	}
	tap.take(pl.primary)
	tap.take(pl.standby)
	elim := "muddy0"
	if *resp.Verdicts[0].Marked {
		elim = "~muddy0"
	}
	if _, err := rc.Announce(st.Session, elim); err != nil {
		t.Fatal(err)
	}
	got := relayed(true)
	if !fromShard(got) {
		t.Fatalf("eliminated marked world: relayed\n%s\nnot a shard's body", got)
	}
	if bytes.Count(got, []byte(`"marked":null`)) != 3 {
		t.Fatalf("eliminated marked world: body %s", got)
	}

	// The primary answers evals 400ms late; the in-sync standby's hedge
	// wins, and its session id is the one replaced.
	fleet[pl.primary].slowRead.Store(int64(400 * time.Millisecond))
	got = relayed(true)
	fleet[pl.primary].slowRead.Store(0)
	if want := wantRelayed(t, tap.take(pl.standby), pl.standbySID, st.Session); !bytes.Equal(got, want) {
		t.Fatalf("hedged: relayed\n%s\nwant\n%s", got, want)
	}
	if stats := rt.StatsSnapshot(); stats.HedgeWins == 0 || stats.Failovers != 0 {
		t.Fatalf("hedged eval: %+v", stats)
	}
}

// TestRouterEvalForeignBodyIs502: a shard that answers an eval 200 with a
// body not starting with its own session id gets a 502, and the session
// does not fail over — the body is a protocol error, not a dead shard.
func TestRouterEvalForeignBodyIs502(t *testing.T) {
	shards, fleet := newFleet(t, "n1", "n2")
	rt, ts, rc := newTestRouter(t, Config{}, shards)

	st, err := rc.Open("muddy:2", 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := rt.lookup(st.Session)
	cs.mu.Lock()
	primary := cs.primary
	cs.mu.Unlock()
	inner := *fleet[primary].handler.Load()
	var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/eval") {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"link":0,"session":"s1","verdicts":[]}` + "\n"))
			return
		}
		inner.ServeHTTP(w, r)
	})
	fleet[primary].handler.Store(&h)

	resp, err := http.Post(ts.URL+"/v1/sessions/"+st.Session+"/eval", "application/json",
		strings.NewReader(`{"formulas":["muddy0"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	stats := rt.StatsSnapshot()
	if stats.Failovers != 0 {
		t.Fatalf("a foreign body failed the session over: %+v", stats)
	}
	for _, sh := range stats.Shards {
		if sh.Breaker != "closed" {
			t.Fatalf("shard %s breaker %s", sh.ID, sh.Breaker)
		}
	}
}

// TestRouterOversizedEvalIs422: an eval whose verdicts exceed
// server.MaxResponseBytes is a definitive 422 from the shard, passed
// through the router; it neither truncates nor fails a healthy session
// over. A muddy:12 world bitmap is only 683 bytes, so the batch gets there
// through its echoed formulas: the client sends each & as one byte, and
// knowd echoes it HTML-escaped as the six bytes \u0026. 1024 formulas of
// 1000 bytes (a 1 MB request, at the body cap) come back as about 4.3 MB.
func TestRouterOversizedEvalIs422(t *testing.T) {
	shards, _ := newFleet(t, "n1", "n2")
	rt, _, rc := newTestRouter(t, Config{}, shards)

	st, err := rc.Open("muddy:12", 0)
	if err != nil {
		t.Fatal(err)
	}
	formulas := make([]string, 1024)
	for i := range formulas {
		formulas[i] = "true|p" + strings.Repeat("&p", 497)
	}
	_, err = rc.Eval(st.Session, server.EvalRequest{Formulas: formulas, Worlds: true})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity || !strings.Contains(apiErr.Msg, "byte cap") {
		t.Fatalf("oversized eval: %v, want a 422 for the response cap", err)
	}
	stats := rt.StatsSnapshot()
	if stats.Failovers != 0 {
		t.Fatalf("oversized eval failed the session over: %+v", stats)
	}
	for _, sh := range stats.Shards {
		if sh.Breaker != "closed" {
			t.Fatalf("shard %s breaker %s after an oversized eval", sh.ID, sh.Breaker)
		}
	}
	if b := rc.Stats().Breaker; b != "closed" {
		t.Fatalf("client breaker %s", b)
	}
	// The session still serves.
	if resp, err := rc.Eval(st.Session, server.EvalRequest{Formulas: formulas[:1], Worlds: true}); err != nil ||
		len(resp.Verdicts[0].Worlds) != 4096 {
		t.Fatalf("eval after the refusal: %v", err)
	}
}

// shardExchange is one eval request a shard received and its answer.
type shardExchange struct {
	req  []byte
	code int
	resp []byte
}

// tapEvalRequests records every eval request any shard of the fleet
// receives, with the shard's answer.
func tapEvalRequests(t *testing.T, fleet map[string]*testShard) func() []shardExchange {
	var mu sync.Mutex
	var seen []shardExchange
	for _, sh := range fleet {
		inner := *sh.handler.Load()
		var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/eval") {
				inner.ServeHTTP(w, r)
				return
			}
			req, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			r.Body = io.NopCloser(bytes.NewReader(req))
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			mu.Lock()
			seen = append(seen, shardExchange{req, rec.Code, bytes.Clone(rec.Body.Bytes())})
			mu.Unlock()
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		})
		sh.handler.Store(&h)
	}
	return func() []shardExchange {
		mu.Lock()
		defer mu.Unlock()
		out := seen
		seen = nil
		return out
	}
}

// errorMsg is the message of an error body.
func errorMsg(t *testing.T, body []byte) string {
	t.Helper()
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body %s: %v", body, err)
	}
	return eb.Error
}

// TestRouterRelaysEvalRequestVerbatim: the router forwards an eval request
// to the shard byte for byte (raw &, non-ASCII text, key order, spacing,
// workers and worlds), and knowd alone validates it: a body knowd refuses
// comes back through the router as knowd's own 400, from the primary
// alone (no hedge: the in-sync standby would say the same), the session
// stays put and no breaker opens. Only a body over the 1 MiB cap is the
// router's own 400, and it reaches no shard.
func TestRouterRelaysEvalRequestVerbatim(t *testing.T) {
	shards, fleet := newFleet(t, "n1", "n2")
	rt, ts, rc := newTestRouter(t, Config{HedgeAfter: time.Second}, shards)
	st, err := rc.Open("muddy:3", 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := rt.lookup(st.Session)
	cs.mu.Lock()
	primarySID := cs.primarySID
	cs.mu.Unlock()
	take := tapEvalRequests(t, fleet)

	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sessions/"+st.Session+"/eval", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, got
	}
	for _, tc := range []struct {
		name, body string
		code       int
		msg        string // a substring of the 400's message
	}{
		{"valid", `{"worlds":true,  "workers":2,` + "\n" + `"formulas":["K0 muddy1 & ~muddy2","C (muddy0 | muddy1)"]}`,
			http.StatusOK, ""},
		{"non-ASCII", `{"formulas":["muddy0 & ~frère"],"workers":-1}`,
			http.StatusBadRequest, "formula 0: "},
		{"unknown field", `{"formulas":["muddy0"],"bogus":1}`,
			http.StatusBadRequest, `bad request body: json: unknown field "bogus"`},
		{"truncated JSON", `{"formulas":["muddy0"`,
			http.StatusBadRequest, "bad request body: unexpected EOF"},
	} {
		code, got := post(tc.body)
		ex := take()
		if len(ex) != 1 || string(ex[0].req) != tc.body {
			var reqs []string
			for _, e := range ex {
				reqs = append(reqs, string(e.req))
			}
			t.Fatalf("%s: shards saw %q, want exactly %q", tc.name, reqs, tc.body)
		}
		if code != tc.code || ex[0].code != tc.code {
			t.Fatalf("%s: router %d, shard %d, want %d: %s", tc.name, code, ex[0].code, tc.code, got)
		}
		want := ex[0].resp
		if code == http.StatusOK {
			want = wantRelayed(t, want, primarySID, st.Session)
		} else if msg := errorMsg(t, got); !strings.Contains(msg, tc.msg) {
			t.Fatalf("%s: router answered %q, want a message with %q", tc.name, msg, tc.msg)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: router answered\n%s\nwant the shard's\n%s", tc.name, got, want)
		}
	}

	big := `{"formulas":["p` + strings.Repeat("&p", 1<<19) + `"]}`
	code, got := post(big)
	if code != http.StatusBadRequest || errorMsg(t, got) != "bad request body: http: request body too large" {
		t.Fatalf("oversized body: %d %s", code, got)
	}
	if ex := take(); len(ex) != 0 {
		t.Fatalf("an oversized body reached a shard: %d requests", len(ex))
	}

	stats := rt.StatsSnapshot()
	if stats.Failovers != 0 || stats.Hedges != 0 {
		t.Fatalf("a refused body failed the session over or was hedged: %+v", stats)
	}
	for _, sh := range stats.Shards {
		if sh.Breaker != "closed" || sh.ConsecutiveFails != 0 {
			t.Fatalf("shard %s breaker %s, %d fails after refused bodies", sh.ID, sh.Breaker, sh.ConsecutiveFails)
		}
	}
}
