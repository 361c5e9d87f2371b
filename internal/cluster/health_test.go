package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/simclock"
)

// TestHealthVirtualClock drives the checker's whole lifecycle — healthy,
// consecutive probe failures, ejection, a failed half-open probe restarting
// the cooldown, re-admission — from a simclock virtual clock with injected
// now, tick, and probe, and zero wall-clock sleeps (the same pattern as the
// server janitor's TestTTLEvictionVirtualClock). Each assertion point is an
// idempotent fixed point of sweep, so the barrier tick (which runs one more
// sweep) cannot perturb the state it certifies.
func TestHealthVirtualClock(t *testing.T) {
	clk := simclock.New(0)
	base := time.Unix(1700000000, 0)
	shards := []Shard{{"n1", "http://unreachable.invalid:1", 1}, {"n2", "http://unreachable.invalid:2", 2}}
	clients := map[string]*client.Client{
		"n1": client.New(client.Config{BaseURL: shards[0].Addr}),
		"n2": client.New(client.Config{BaseURL: shards[1].Addr}),
	}

	c := newChecker(HealthConfig{Every: time.Second, FailAfter: 3, ReadmitAfter: 5 * time.Second}, shards, clients, t.Logf)
	c.now = func() time.Time { return base.Add(time.Duration(clk.Now()) * time.Second) }
	tickc := make(chan time.Time) // unbuffered: sends rendezvous with the sweep loop
	c.tick = func(d time.Duration) (<-chan time.Time, func()) {
		if d != time.Second {
			t.Errorf("checker tick period %v, want cfg.Every", d)
		}
		return tickc, func() {}
	}
	var probeMu sync.Mutex
	failing := map[string]bool{}
	c.probe = func(addr string) (string, error) {
		probeMu.Lock()
		defer probeMu.Unlock()
		if failing[addr] {
			return "", errors.New("probe refused")
		}
		return "", nil
	}
	setFailing := func(addr string, down bool) {
		probeMu.Lock()
		failing[addr] = down
		probeMu.Unlock()
	}
	var cbMu sync.Mutex
	var ejects, readmits []string
	c.onEject = func(id string) { cbMu.Lock(); ejects = append(ejects, id); cbMu.Unlock() }
	c.onReadmit = func(id string) { cbMu.Lock(); readmits = append(readmits, id); cbMu.Unlock() }

	c.start()
	t.Cleanup(c.halt)
	// Each send hands the loop one sweep; because tickc is unbuffered, the
	// acceptance of send N+1 proves sweep N has finished. ticks(n) therefore
	// runs n sweeps and barriers on all but the last, so callers follow it
	// with one barrier tick before asserting.
	ticks := func(n int) {
		for i := 0; i < n; i++ {
			tickc <- time.Time{}
		}
	}

	// Both healthy: ok-probe sweeps are idempotent.
	ticks(2)
	if !c.usable("n1") || !c.usable("n2") {
		t.Fatal("healthy shards not usable")
	}
	if w := c.effectiveWeight("n2", 2); w != 2 {
		t.Fatalf("healthy effective weight %v, want 2", w)
	}

	// n2 starts failing probes: ejection lands exactly on the FailAfter'th
	// consecutive failure, and the post-ejection sweep (the barrier) is a
	// cooldown no-op.
	setFailing(shards[1].Addr, true)
	ticks(4)
	if c.usable("n2") {
		t.Fatal("n2 still usable after FailAfter consecutive probe failures")
	}
	if !c.usable("n1") {
		t.Fatal("n1 was ejected by n2's failures")
	}
	if w := c.effectiveWeight("n2", 2); w != 0 {
		t.Fatalf("ejected shard effective weight %v, want 0", w)
	}
	cbMu.Lock()
	if len(ejects) != 1 || ejects[0] != "n2" {
		t.Fatalf("eject callbacks %v, want [n2]", ejects)
	}
	cbMu.Unlock()

	// Cooldown elapsed but the half-open probe fails: the cooldown restarts
	// and the shard stays out. (The second tick is the barrier; with the
	// virtual clock frozen it is a cooldown no-op.)
	if err := clk.Advance(6); err != nil {
		t.Fatal(err)
	}
	ticks(2)
	if c.usable("n2") {
		t.Fatal("n2 re-admitted by a failed half-open probe")
	}
	cbMu.Lock()
	if len(readmits) != 0 {
		t.Fatalf("readmit callbacks %v, want none yet", readmits)
	}
	cbMu.Unlock()

	// Before the restarted cooldown elapses, even a healthy probe is not
	// admitted.
	setFailing(shards[1].Addr, false)
	if err := clk.Advance(3); err != nil {
		t.Fatal(err)
	}
	ticks(2)
	if c.usable("n2") {
		t.Fatal("n2 re-admitted before the restarted cooldown elapsed")
	}

	// Cooldown over, probe healthy: the half-open probe re-admits, and the
	// barrier sweep is an ordinary healthy no-op.
	if err := clk.Advance(3); err != nil {
		t.Fatal(err)
	}
	ticks(2)
	if !c.usable("n2") {
		t.Fatal("n2 not re-admitted by a healthy half-open probe after cooldown")
	}
	state, fails, _ := c.snapshot("n2")
	if state != "healthy" || fails != 0 {
		t.Fatalf("re-admitted snapshot: state %s fails %d", state, fails)
	}
	cbMu.Lock()
	if len(readmits) != 1 || readmits[0] != "n2" {
		t.Fatalf("readmit callbacks %v, want [n2]", readmits)
	}
	cbMu.Unlock()
}

// TestHealthShedPenalty: 429/503 sheds observed by a shard's data-path
// client decay into the checker's routing-weight penalty — the backpressure
// aggregation that steers new sessions away from a shedding shard.
func TestHealthShedPenalty(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"over capacity"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()

	shards := []Shard{{"n1", ts.URL, 4}}
	clients := map[string]*client.Client{"n1": client.New(client.Config{
		BaseURL: ts.URL, MaxAttempts: 3, BaseDelay: time.Microsecond, BreakerThreshold: 1 << 30,
	})}
	c := newChecker(HealthConfig{}, shards, clients, nil)
	c.probe = func(string) (string, error) { return "", nil } // healthz stays green; only load is shed

	c.sweep()
	if w := c.effectiveWeight("n1", 4); w != 4 {
		t.Fatalf("weight before sheds %v, want 4", w)
	}

	// Three shed responses (every attempt of one call answers 429).
	if _, err := clients["n1"].Open("muddy:2", 0); err == nil {
		t.Fatal("open against a 429 wall should fail")
	}
	c.sweep()
	w1 := c.effectiveWeight("n1", 4)
	if w1 >= 4 {
		t.Fatalf("weight after sheds %v, want damped below 4", w1)
	}
	if _, _, penalty := c.snapshot("n1"); penalty != 3 {
		t.Fatalf("penalty %v, want 3 (one shed per attempt)", penalty)
	}

	// No new sheds: the penalty halves each sweep and the weight recovers.
	c.sweep()
	w2 := c.effectiveWeight("n1", 4)
	if w2 <= w1 || w2 >= 4 {
		t.Fatalf("weight after decay %v, want in (%v, 4)", w2, w1)
	}
}

// TestReadmitFollowsReadmitAfter: a shard ejected because its data-path
// breaker latched is re-admitted by a healthy half-open probe once
// ReadmitAfter lapses, not after the client's own default cooldown — the
// router gives its data-path clients the checker's cooldown.
func TestReadmitFollowsReadmitAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	rt, err := New(Config{
		Shards:           []Shard{{"n1", ts.URL, 1}},
		ShardMaxAttempts: 1,
		Health:           HealthConfig{FailAfter: 1, ReadmitAfter: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := rt.clients["n1"].Health(); err == nil {
			t.Fatal("call against a 500 should fail")
		}
	}
	if st := rt.clients["n1"].Stats(); st.Breaker != "open" {
		t.Fatalf("data-path breaker %q after 5 failed calls, want open", st.Breaker)
	}
	rt.health.probe = func(string) (string, error) { return "", nil }

	rt.health.sweep()
	if rt.health.usable("n1") {
		t.Fatal("a latched data-path breaker did not eject n1")
	}
	for start := time.Now(); !rt.health.usable("n1"); rt.health.sweep() {
		if time.Since(start) > 2*time.Second {
			t.Fatalf("n1 still ejected after 2s with ReadmitAfter 50ms (data-path breaker %q)",
				rt.clients["n1"].Stats().Breaker)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
