package cluster

import (
	"bytes"
	"context"
	"errors"
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
// session id — with and without world lists, with the marked world
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
		body, err := rc.EvalRawCtx(context.Background(), st.Session,
			server.EvalRequest{Formulas: formulas, Worlds: worlds})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, worlds := range []bool{false, true} {
		got := relayed(worlds)
		want := wantRelayed(t, tap.take(pl.primary), pl.primarySID, st.Session)
		if !bytes.Equal(got, want) {
			t.Fatalf("worlds=%v: relayed\n%s\nwant\n%s", worlds, got, want)
		}
		if worlds != bytes.Contains(got, []byte(`"worlds":[`)) {
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
	elim := "muddy0"
	if *resp.Verdicts[0].Marked {
		elim = "~muddy0"
	}
	if _, err := rc.Announce(st.Session, elim); err != nil {
		t.Fatal(err)
	}
	got := relayed(true)
	if want := wantRelayed(t, tap.take(pl.primary), pl.primarySID, st.Session); !bytes.Equal(got, want) {
		t.Fatalf("eliminated marked world: relayed\n%s\nwant\n%s", got, want)
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
// over. muddy:12 has 4096 worlds, so 300 world lists of a tautology come
// to about 5.7 MB.
func TestRouterOversizedEvalIs422(t *testing.T) {
	shards, _ := newFleet(t, "n1", "n2")
	rt, _, rc := newTestRouter(t, Config{}, shards)

	st, err := rc.Open("muddy:12", 0)
	if err != nil {
		t.Fatal(err)
	}
	formulas := make([]string, 300)
	for i := range formulas {
		formulas[i] = "muddy0 | ~muddy0"
	}
	_, err = rc.Eval(st.Session, server.EvalRequest{Formulas: formulas, Worlds: true})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("oversized eval: %v, want a 422", err)
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
