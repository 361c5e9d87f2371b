package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// testShard is one in-process knowd upstream at a stable address. down
// simulates a SIGKILL (connections die mid-flight with no response);
// reset() is a crash-restart with total state loss; slowRead delays reads
// (GETs and eval batches) without touching mutations.
type testShard struct {
	id       string
	ts       *httptest.Server
	handler  atomic.Pointer[http.Handler]
	down     atomic.Bool
	slowRead atomic.Int64 // nanoseconds
}

func (sh *testShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if sh.down.Load() {
		panic(http.ErrAbortHandler)
	}
	if d := sh.slowRead.Load(); d > 0 && (r.Method == http.MethodGet || strings.HasSuffix(r.URL.Path, "/eval")) {
		time.Sleep(time.Duration(d))
	}
	(*sh.handler.Load()).ServeHTTP(w, r)
}

func (sh *testShard) reset() { sh.resetWithBoot("") }

// resetWithBoot is a crash-restart into a fresh incarnation: total state
// loss plus a new boot id advertised on healthz.
func (sh *testShard) resetWithBoot(boot string) {
	h := server.New(server.Config{BootID: boot}).Handler()
	sh.handler.Store(&h)
	sh.down.Store(false)
}

func newFleet(t *testing.T, ids ...string) ([]Shard, map[string]*testShard) {
	t.Helper()
	shards := make([]Shard, 0, len(ids))
	fleet := make(map[string]*testShard, len(ids))
	for _, id := range ids {
		sh := &testShard{id: id}
		sh.reset()
		sh.ts = httptest.NewServer(sh)
		t.Cleanup(sh.ts.Close)
		shards = append(shards, Shard{ID: id, Addr: sh.ts.URL, Weight: 1})
		fleet[id] = sh
	}
	return shards, fleet
}

// newTestRouter mounts a router over the fleet (health checker NOT started:
// tests drive ejection explicitly) plus a client speaking to it.
func newTestRouter(t *testing.T, cfg Config, shards []Shard) (*Router, *httptest.Server, *client.Client) {
	t.Helper()
	cfg.Shards = shards
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if cfg.ShardMaxAttempts == 0 {
		cfg.ShardMaxAttempts = 2
	}
	if cfg.ShardBaseDelay == 0 {
		cfg.ShardBaseDelay = time.Millisecond
	}
	if cfg.ShardMaxDelay == 0 {
		cfg.ShardMaxDelay = 4 * time.Millisecond
	}
	cfg.Logf = t.Logf
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	rc := client.New(client.Config{BaseURL: ts.URL, MaxAttempts: 2, BaseDelay: time.Millisecond})
	return rt, ts, rc
}

// control runs the same session script against a plain single knowd and
// returns its final state and eval response — the oracle every routed
// variant must match bit for bit (modulo the session id the router owns).
func control(t *testing.T, sys string, seed int64, sources, formulas []string) (server.SessionState, server.EvalResponse) {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	t.Cleanup(ts.Close)
	c := client.New(client.Config{BaseURL: ts.URL})
	st, err := c.Open(sys, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range sources {
		if st, err = c.AnnounceAt(st.Session, src, i); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.Eval(st.Session, server.EvalRequest{Formulas: formulas})
	if err != nil {
		t.Fatal(err)
	}
	st.Session, resp.Session = "", ""
	return st, resp
}

// ejectShard drives the shard's probe breaker open with failed verdicts.
func ejectShard(rt *Router, id string) {
	rt.health.mu.Lock()
	defer rt.health.mu.Unlock()
	for st := rt.health.st[id]; !st.ejected(); {
		st.breaker.Record(false, rt.health.now())
	}
}

func TestRouterBasicFlow(t *testing.T) {
	shards, fleet := newFleet(t, "n1", "n2")
	rt, _, rc := newTestRouter(t, Config{}, shards)

	st, err := rc.Open("muddy:3", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Session != "r1" || st.Agents != 3 || st.Link != 0 {
		t.Fatalf("opened state: %+v", st)
	}
	father := "muddy0 | muddy1 | muddy2"
	if st, err = rc.Announce("r1", father); err != nil {
		t.Fatal(err)
	}
	if st.Session != "r1" || st.Link != 1 {
		t.Fatalf("announced state: %+v", st)
	}
	resp, err := rc.Eval("r1", server.EvalRequest{Formulas: []string{"muddy0", "muddy1"}})
	if err != nil {
		t.Fatal(err)
	}

	// The router must be invisible: state and verdicts byte-equal a plain
	// single-daemon run of the same script (seed 0 resolves to the router's
	// configured seed, so the control opens with that seed explicitly).
	wantSt, wantResp := control(t, "muddy:3", 7, []string{father}, []string{"muddy0", "muddy1"})
	got, err := rc.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	got.Session = ""
	if !reflect.DeepEqual(got, wantSt) {
		t.Fatalf("routed state %+v != control %+v", got, wantSt)
	}
	resp.Session = ""
	if !reflect.DeepEqual(resp, wantResp) {
		t.Fatalf("routed eval %+v != control %+v", resp, wantResp)
	}

	// A warm standby was built on the other shard and caught up through the
	// announce, so both shards hold exactly one replica of the chain.
	cs := rt.lookup("r1")
	cs.mu.Lock()
	if cs.standby == "" || cs.standby == cs.primary || cs.standbyLink != len(cs.sources) || len(cs.sources) != 1 {
		t.Fatalf("standby not in sync: primary=%s standby=%s standbyLink=%d sources=%d",
			cs.primary, cs.standby, cs.standbyLink, len(cs.sources))
	}
	cs.mu.Unlock()
	for id, sh := range fleet {
		states, err := client.New(client.Config{BaseURL: sh.ts.URL}).Sessions()
		if err != nil || len(states) != 1 || states[0].Link != 1 {
			t.Fatalf("shard %s replicas: %+v, %v", id, states, err)
		}
	}

	if err := rc.Close("r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Get("r1"); err == nil {
		t.Fatal("get after close succeeded")
	}
	stats := rt.StatsSnapshot()
	if stats.Opens != 1 || stats.Closes != 1 || stats.Sessions != 0 {
		t.Fatalf("counters: %+v", stats)
	}
	if stats.HedgedMutations != 0 {
		t.Fatalf("hedged mutations tripwire: %d", stats.HedgedMutations)
	}
	// The upstream replicas were closed too.
	for id, sh := range fleet {
		if states, _ := client.New(client.Config{BaseURL: sh.ts.URL}).Sessions(); len(states) != 0 {
			t.Fatalf("shard %s kept replicas after close: %+v", id, states)
		}
	}
}

func TestRouterDedupe(t *testing.T) {
	shards, _ := newFleet(t, "n1", "n2")
	rt, ts, _ := newTestRouter(t, Config{}, shards)

	open := func() (int, []byte) {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions", strings.NewReader(`{"system":"muddy:2"}`))
		req.Header.Set("Idempotency-Key", "open-retry-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	code1, body1 := open()
	code2, body2 := open()
	if code1 != http.StatusCreated || code2 != http.StatusCreated || !bytes.Equal(body1, body2) {
		t.Fatalf("dedupe replay diverged: %d %s vs %d %s", code1, body1, code2, body2)
	}
	if st := rt.StatsSnapshot(); st.Opens != 1 || st.DedupeHits != 1 || st.Sessions != 1 {
		t.Fatalf("counters after idempotent retry: %+v", st)
	}
}

func TestRouterFailoverHandoff(t *testing.T) {
	shards, fleet := newFleet(t, "n1", "n2")
	rt, _, rc := newTestRouter(t, Config{}, shards)

	if _, err := rc.Open("muddy:2", 0); err != nil {
		t.Fatal(err)
	}
	father := "muddy0 | muddy1"
	if _, err := rc.Announce("r1", father); err != nil {
		t.Fatal(err)
	}
	cs := rt.lookup("r1")
	cs.mu.Lock()
	primary, standby := cs.primary, cs.standby
	cs.mu.Unlock()
	if standby == "" {
		t.Fatal("no standby to hand off to")
	}

	wantSt, wantResp := control(t, "muddy:2", 7, []string{father}, []string{"muddy0"})
	fleet[primary].down.Store(true)

	resp, err := rc.Eval("r1", server.EvalRequest{Formulas: []string{"muddy0"}})
	if err != nil {
		t.Fatalf("eval across failover: %v", err)
	}
	resp.Session = ""
	if !reflect.DeepEqual(resp, wantResp) {
		t.Fatalf("post-handoff eval %+v != control %+v", resp, wantResp)
	}
	st := rt.StatsSnapshot()
	if st.Failovers != 1 || st.Handoffs != 1 || st.Reopens != 0 {
		t.Fatalf("failover counters: %+v", st)
	}
	cs.mu.Lock()
	if cs.primary != standby {
		t.Fatalf("primary after handoff %s, want promoted standby %s", cs.primary, standby)
	}
	if cs.standby != "" {
		t.Fatalf("standby rebuilt on a dead shard: %s", cs.standby)
	}
	cs.mu.Unlock()
	got, err := rc.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	got.Session = ""
	if !reflect.DeepEqual(got, wantSt) {
		t.Fatalf("post-handoff state %+v != control %+v", got, wantSt)
	}

	// The dead shard crash-restarts empty at the same address; the next
	// announce catches the chain up and rebuilds the warm standby on it by
	// replaying the persisted sources.
	fleet[primary].reset()
	if _, err := rc.Announce("r1", "muddy0"); err != nil {
		t.Fatal(err)
	}
	cs.mu.Lock()
	if cs.standby != primary || cs.standbyLink != 2 || len(cs.sources) != 2 {
		t.Fatalf("standby after restart: standby=%s link=%d sources=%d", cs.standby, cs.standbyLink, len(cs.sources))
	}
	cs.mu.Unlock()
	if rt.StatsSnapshot().StandbyRebuilds == 0 {
		t.Fatal("standby rebuild not counted")
	}
}

func TestRouterFailoverReplay(t *testing.T) {
	shards, fleet := newFleet(t, "n1", "n2", "n3")
	rt, _, rc := newTestRouter(t, Config{}, shards)

	if _, err := rc.Open("muddy:2", 0); err != nil {
		t.Fatal(err)
	}
	father := "muddy0 | muddy1"
	if _, err := rc.Announce("r1", father); err != nil {
		t.Fatal(err)
	}
	cs := rt.lookup("r1")
	cs.mu.Lock()
	primary, standby := cs.primary, cs.standby
	cs.mu.Unlock()

	// The standby's shard is ejected and the primary is killed: the only
	// path left is a full re-open on the third shard by replaying the
	// persisted announcement sources.
	ejectShard(rt, standby)
	fleet[primary].down.Store(true)

	wantSt, wantResp := control(t, "muddy:2", 7, []string{father}, []string{"muddy1"})
	resp, err := rc.Eval("r1", server.EvalRequest{Formulas: []string{"muddy1"}})
	if err != nil {
		t.Fatalf("eval across replay failover: %v", err)
	}
	resp.Session = ""
	if !reflect.DeepEqual(resp, wantResp) {
		t.Fatalf("post-replay eval %+v != control %+v", resp, wantResp)
	}
	st := rt.StatsSnapshot()
	if st.Reopens != 1 || st.Handoffs != 0 {
		t.Fatalf("failover counters: %+v", st)
	}
	cs.mu.Lock()
	newPrimary := cs.primary
	cs.mu.Unlock()
	if newPrimary == primary || newPrimary == standby {
		t.Fatalf("replayed onto %s, want the third shard", newPrimary)
	}
	got, err := rc.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	got.Session = ""
	if !reflect.DeepEqual(got, wantSt) {
		t.Fatalf("replayed chain state %+v != control %+v", got, wantSt)
	}
}

func TestRouterOpenNoHealthyShard(t *testing.T) {
	shards, _ := newFleet(t, "n1", "n2")
	rt, ts, _ := newTestRouter(t, Config{}, shards)
	ejectShard(rt, "n1")
	ejectShard(rt, "n2")
	// Raw request: the retrying client would honor Retry-After and sleep.
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"system":"muddy:2"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "no healthy shard") {
		t.Fatalf("open with no healthy shard: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestRouterReconcile(t *testing.T) {
	shards, fleet := newFleet(t, "n1", "n2")
	rt, ts, rc := newTestRouter(t, Config{}, shards)

	if _, err := rc.Open("muddy:2", 0); err != nil {
		t.Fatal(err)
	}
	// A stray upstream session the router never mapped — the residue a
	// partition-era failover leaves on a shard that comes back.
	strayClient := client.New(client.Config{BaseURL: fleet["n1"].ts.URL})
	stray, err := strayClient.Open("muddy:4", 3)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/reconcile", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out["strays_closed"] != 1 || out["shard_errors"] != 0 {
		t.Fatalf("reconcile: %v", out)
	}
	if rt.StatsSnapshot().DupOpens != 1 {
		t.Fatalf("dup_opens %d, want 1", rt.StatsSnapshot().DupOpens)
	}
	if _, err := strayClient.Get(stray.Session); err == nil {
		t.Fatal("stray survived reconcile")
	}
	// The mapped session (and its standby replica) did not get reaped.
	if _, err := rc.Get("r1"); err != nil {
		t.Fatalf("mapped session reaped by reconcile: %v", err)
	}
}

// TestRouterReconcileRepairsLostReplicas: a shard that restarts empty
// under the same boot id fires no restart event, so the router still maps
// replicas there that the shard lost. One reconcile pass rebuilds them:
// lost primaries fail over, lost standbys are rebuilt, and every shard
// then holds exactly the replicas the router maps to it.
func TestRouterReconcileRepairsLostReplicas(t *testing.T) {
	shards, fleet := newFleet(t, "n1", "n2")
	rt, ts, rc := newTestRouter(t, Config{}, shards)
	systems := []string{"muddy:2", "muddy:3", "muddy:4", "muddy:5", "muddy:6", "muddy:7"}
	for _, sys := range systems {
		if _, err := rc.Open(sys, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rc.Announce("r2", "muddy0 | muddy1 | muddy2"); err != nil {
		t.Fatal(err)
	}
	cs := rt.lookup("r1")
	cs.mu.Lock()
	standby := cs.standby
	cs.mu.Unlock()
	var lost int
	for _, sh := range rt.StatsSnapshot().Shards {
		if sh.ID == standby {
			if sh.Primaries == 0 || sh.Standbys == 0 {
				t.Fatalf("shard %s maps %d primaries and %d standbys; want both roles lost", sh.ID, sh.Primaries, sh.Standbys)
			}
			lost = sh.Primaries + sh.Standbys
		}
	}
	fleet[standby].reset()

	resp, err := http.Post(ts.URL+"/v1/reconcile", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out["replicas_repaired"] != lost || out["strays_closed"] != 0 || out["shard_errors"] != 0 {
		t.Fatalf("reconcile: %v, want %d replicas repaired", out, lost)
	}
	for _, sh := range rt.StatsSnapshot().Shards {
		held, err := client.New(client.Config{BaseURL: fleet[sh.ID].ts.URL}).Sessions()
		if err != nil {
			t.Fatal(err)
		}
		if mapped := sh.Primaries + sh.Standbys; len(held) != mapped {
			t.Fatalf("shard %s holds %d sessions, router maps %d", sh.ID, len(held), mapped)
		}
	}
	if st, err := rc.Get("r2"); err != nil || st.Link != 1 {
		t.Fatalf("repaired session: %+v, %v", st, err)
	}
}

func TestRouterDrainAndReport(t *testing.T) {
	shards, _ := newFleet(t, "n1", "n2")
	rt, ts, rc := newTestRouter(t, Config{}, shards)
	if _, err := rc.Open("muddy:2", 0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	report, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"| shard |", "| n1 |", "| n2 |", "knowrouter fleet report"} {
		if !strings.Contains(string(report), want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct{ method, path, wantBody string }{
		{"GET", "/healthz", "draining"},
		{"POST", "/v1/sessions", "draining"},
		{"GET", "/v1/sessions/r1", "draining"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, strings.NewReader(`{"system":"muddy:2"}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), probe.wantBody) {
			t.Fatalf("%s %s while draining: %d %s", probe.method, probe.path, resp.StatusCode, body)
		}
	}
}

// TestRouterConcurrentEvalsDuringKill hammers reads while the primary dies:
// every request must either succeed with the correct link or fail over
// transparently — no duplicate chains, no wrong answers.
func TestRouterConcurrentEvalsDuringKill(t *testing.T) {
	shards, fleet := newFleet(t, "n1", "n2", "n3")
	rt, _, rc := newTestRouter(t, Config{}, shards)
	if _, err := rc.Open("muddy:2", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Announce("r1", "muddy0 | muddy1"); err != nil {
		t.Fatal(err)
	}
	cs := rt.lookup("r1")
	cs.mu.Lock()
	primary := cs.primary
	cs.mu.Unlock()

	const workers = 8
	errc := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func() {
			for j := 0; j < 5; j++ {
				st, err := rc.Get("r1")
				if err != nil {
					errc <- err
					return
				}
				if st.Link != 1 {
					errc <- fmt.Errorf("link %d, want 1", st.Link)
					return
				}
			}
			errc <- nil
		}()
	}
	fleet[primary].down.Store(true)
	for i := 0; i < workers; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("concurrent read during kill: %v", err)
		}
	}
	if got := rt.StatsSnapshot().HedgedMutations; got != 0 {
		t.Fatalf("hedged mutations tripwire: %d", got)
	}
}

// TestRouterBootRestartFencing crashes a shard and brings it back with a
// new boot id faster than any probe failure could accumulate — the blind
// spot of consecutive-failure ejection. The next sweep must spot the
// incarnation change and evacuate every session mapped there, replaying
// chains onto survivors, so no request ever reads a ghost of the old
// incarnation.
func TestRouterBootRestartFencing(t *testing.T) {
	shards, fleet := newFleet(t, "n1", "n2")
	fleet["n1"].resetWithBoot("inc1")
	fleet["n2"].resetWithBoot("inc1")
	rt, _, rc := newTestRouter(t, Config{}, shards)
	rt.health.sweep() // records each shard's first advertised incarnation

	father := "muddy0 | muddy1 | muddy2"
	sessions := make(map[string]int) // router session -> expected link
	byShard := map[string]int{}
	for i := 0; i < 8; i++ {
		st, err := rc.Open(fmt.Sprintf("muddy:%d", 2+i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if st, err = rc.Announce(st.Session, father); err != nil {
				t.Fatal(err)
			}
		}
		sessions[st.Session] = st.Link
		cs := rt.lookup(st.Session)
		cs.mu.Lock()
		byShard[cs.primary]++
		cs.mu.Unlock()
	}
	if byShard["n1"] == 0 || byShard["n2"] == 0 {
		t.Fatalf("placement never split: %v", byShard)
	}

	// Instant crash-restart: state gone, probes green the whole time.
	fleet["n1"].resetWithBoot("inc2")
	rt.health.sweep()

	if got := rt.restarts.Load(); got != 1 {
		t.Fatalf("restarts detected: %d, want 1", got)
	}
	for id, wantLink := range sessions {
		cs := rt.lookup(id)
		cs.mu.Lock()
		primary := cs.primary
		cs.mu.Unlock()
		if primary == "n1" {
			t.Fatalf("session %s still mapped to the dead incarnation", id)
		}
		st, err := rc.Get(id)
		if err != nil {
			t.Fatalf("get %s after fencing: %v", id, err)
		}
		if st.Link != wantLink {
			t.Fatalf("session %s link %d after evacuation, want %d", id, st.Link, wantLink)
		}
	}

	// A stable incarnation must not keep firing.
	rt.health.sweep()
	if got := rt.restarts.Load(); got != 1 {
		t.Fatalf("restarts after stable sweep: %d, want 1", got)
	}
}
