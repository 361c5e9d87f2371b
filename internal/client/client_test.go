package client

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// stubTime wires deterministic time into a client: sleeps are recorded,
// the clock only moves when the test says so.
type stubTime struct {
	now    time.Time
	slept  []time.Duration
	client *Client
}

func stubClock(c *Client) *stubTime {
	st := &stubTime{now: time.Unix(1700000000, 0), client: c}
	c.now = func() time.Time { return st.now }
	c.sleep = func(d time.Duration) { st.slept = append(st.slept, d) }
	return st
}

// TestRetryReusesIdempotencyKey: transient failures (429 with Retry-After,
// then 503) are retried with the SAME idempotency key, and the call
// converges on the eventual 200.
func TestRetryReusesIdempotencyKey(t *testing.T) {
	var keys []string
	var n atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		switch n.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"over capacity"}`, http.StatusTooManyRequests)
		case 2:
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
		default:
			w.Write([]byte(`{"session":"s1","system":"muddy:2","agents":2,"link":0,"worlds":4,"quotient":4,"marked":3}`))
		}
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond})
	st := stubClock(c)
	got, err := c.Open("muddy:2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Session != "s1" || got.Worlds != 4 {
		t.Fatalf("open result: %+v", got)
	}
	if len(keys) != 3 {
		t.Fatalf("attempts: %d", len(keys))
	}
	if keys[0] == "" || keys[0] != keys[1] || keys[1] != keys[2] {
		t.Fatalf("idempotency keys drift across retries: %v", keys)
	}
	if c.Stats().Retries != 2 {
		t.Fatalf("retries counter: %d", c.Stats().Retries)
	}
	// The first backoff honors Retry-After: 1s floor beats the tiny jitter.
	if len(st.slept) != 2 || st.slept[0] < time.Second {
		t.Fatalf("backoff sleeps: %v", st.slept)
	}
	// The second (no Retry-After) is full jitter under the ceiling.
	if st.slept[1] >= 8*time.Millisecond {
		t.Fatalf("jitter exceeded ceiling: %v", st.slept[1])
	}
}

// TestDistinctCallsDistinctKeys: two logical calls must never share a key,
// or the server would collapse them into one.
func TestDistinctCallsDistinctKeys(t *testing.T) {
	var keys []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL, DeterministicKeys: true})
	stubClock(c)
	if _, err := c.Announce("s1", "p"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Announce("s1", "q"); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] == keys[1] {
		t.Fatalf("keys: %v", keys)
	}

	// Equal seeds with DeterministicKeys mint the identical key sequence
	// (chaos runs replay).
	c2 := New(Config{BaseURL: ts.URL, DeterministicKeys: true})
	stubClock(c2)
	if _, err := c2.Announce("s1", "p"); err != nil {
		t.Fatal(err)
	}
	if keys[2] != keys[0] {
		t.Fatalf("key sequence not deterministic: %q vs %q", keys[2], keys[0])
	}

	// Two default clients sharing a seed never collide: each mints its own
	// random prefix, so separate processes can't dedupe each other away.
	c3, c4 := New(Config{BaseURL: ts.URL}), New(Config{BaseURL: ts.URL})
	stubClock(c3)
	stubClock(c4)
	if _, err := c3.Announce("s1", "p"); err != nil {
		t.Fatal(err)
	}
	if _, err := c4.Announce("s1", "p"); err != nil {
		t.Fatal(err)
	}
	if keys[3] == keys[4] {
		t.Fatalf("independent clients collided on key %q", keys[3])
	}
}

// TestNonRetryable4xxFailsFast: a definitive server verdict is returned
// as an APIError after one attempt and does not feed the breaker.
func TestNonRetryable4xxFailsFast(t *testing.T) {
	var n atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		http.Error(w, `{"error":"no such session"}`, http.StatusNotFound)
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL, BreakerThreshold: 2})
	stubClock(c)
	for i := 0; i < 5; i++ {
		_, err := c.Eval("s999", server.EvalRequest{Formulas: []string{"p"}})
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Msg != "no such session" {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := n.Load(); got != 5 {
		t.Fatalf("5 calls made %d attempts (retried a 404, or breaker opened)", got)
	}
}

// TestCircuitBreaker: consecutive transport failures open the breaker,
// open-state calls fail fast without touching the network, and after the
// cooldown a half-open probe closes it again on success.
func TestCircuitBreaker(t *testing.T) {
	var n atomic.Int32
	healthy := atomic.Bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		if healthy.Load() {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New(Config{
		BaseURL:          ts.URL,
		MaxAttempts:      1,
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Second,
	})
	st := stubClock(c)

	for i := 0; i < 3; i++ {
		if _, err := c.Health(); err == nil {
			t.Fatalf("call %d unexpectedly succeeded", i)
		}
	}
	if got := n.Load(); got != 3 {
		t.Fatalf("attempts before open: %d", got)
	}
	// Open: calls fail fast, the server sees nothing.
	if _, err := c.Health(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker: %v", err)
	}
	if got := n.Load(); got != 3 {
		t.Fatalf("open breaker still hit the server: %d attempts", got)
	}
	// Cooldown passes; the probe goes through and closes the breaker.
	healthy.Store(true)
	st.now = st.now.Add(11 * time.Second)
	if status, err := c.Health(); err != nil || status != "ok" {
		t.Fatalf("half-open probe: %q, %v", status, err)
	}
	if _, err := c.Health(); err != nil {
		t.Fatalf("after close: %v", err)
	}
	if got := n.Load(); got != 5 {
		t.Fatalf("attempts after recovery: %d", got)
	}
}

// TestExhaustedRetries: a persistently failing endpoint yields the last
// transient error wrapped with the attempt count.
func TestExhaustedRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"overload"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL, MaxAttempts: 3, BaseDelay: time.Microsecond})
	stubClock(c)
	_, err := c.Open("muddy:2", 0)
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if c.Stats().Retries != 2 {
		t.Fatalf("retries: %d", c.Stats().Retries)
	}
}

// TestAgainstLiveDaemon drives the real server package end to end through
// the client: the full session lifecycle with idempotent calls.
func TestAgainstLiveDaemon(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL})

	systems, err := c.Systems()
	if err != nil || len(systems) == 0 {
		t.Fatalf("systems: %v, %v", systems, err)
	}
	st, err := c.Open("muddy:3", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Worlds != 8 {
		t.Fatalf("open: %+v", st)
	}
	ev, err := c.Eval(st.Session, server.EvalRequest{Formulas: []string{"K0 muddy1"}})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Verdicts[0].Count != 4 {
		t.Fatalf("eval: %+v", ev)
	}
	st, err = c.Announce(st.Session, "muddy0 | muddy1 | muddy2")
	if err != nil {
		t.Fatal(err)
	}
	if st.Link != 1 || st.Worlds != 7 {
		t.Fatalf("announce: %+v", st)
	}
	if err := c.Close(st.Session); err != nil {
		t.Fatal(err)
	}
	stats, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Opened != 1 || stats.Closed != 1 || stats.Evals != 1 || stats.Announces != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}
