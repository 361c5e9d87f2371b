package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// TestStatsAccessor walks the breaker through its whole lifecycle —
// closed, a growing failure run, open, half-open after the cooldown,
// closed again on a successful probe — asserting every transition through
// the Stats telemetry accessor (what a cluster router watches instead of
// shadow-counting failures itself).
func TestStatsAccessor(t *testing.T) {
	var healthy atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
	clk := stubClock(c)

	if st := c.Stats(); st.Breaker != "closed" || st.ConsecutiveFails != 0 {
		t.Fatalf("fresh client stats: %+v", st)
	}
	for i := 1; i <= 2; i++ {
		c.Health()
		if st := c.Stats(); st.Breaker != "closed" || st.ConsecutiveFails != i {
			t.Fatalf("after %d failures: %+v", i, st)
		}
	}
	c.Health() // third consecutive failure opens the breaker
	if st := c.Stats(); st.Breaker != "open" || st.ConsecutiveFails != 3 {
		t.Fatalf("at threshold: %+v", st)
	}

	// Cooldown elapsed but no probe admitted yet: half-open.
	clk.now = clk.now.Add(11 * time.Second)
	if st := c.Stats(); st.Breaker != "half-open" {
		t.Fatalf("after cooldown: %+v", st)
	}

	// A successful probe closes it and resets the run.
	healthy.Store(true)
	if _, err := c.Health(); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if st := c.Stats(); st.Breaker != "closed" || st.ConsecutiveFails != 0 {
		t.Fatalf("after probe success: %+v", st)
	}
}

// TestStatsSheds: 429 and 503 responses are counted as sheds — the
// backpressure signal a router folds into its routing weights.
func TestStatsSheds(t *testing.T) {
	var n atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) {
		case 1:
			http.Error(w, `{"error":"over capacity"}`, http.StatusTooManyRequests)
		case 2:
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
		default:
			w.Write([]byte(`{"session":"s1","system":"muddy:2","agents":2,"link":0,"worlds":4,"quotient":4,"marked":3}`))
		}
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, BaseDelay: time.Microsecond})
	stubClock(c)
	if _, err := c.Open("muddy:2", 0); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Sheds != 2 || st.Retries != 2 {
		t.Fatalf("sheds %d retries %d, want 2 and 2", st.Sheds, st.Retries)
	}
	if st.Breaker != "closed" || st.ConsecutiveFails != 0 {
		t.Fatalf("converged call left breaker state: %+v", st)
	}
}

// TestCancelledCallIsNeutral: a context-cancelled call (a caller that gave
// up) reports the cancellation but moves neither the failure run nor
// the breaker — cancelling a healthy shard's request must not eject it.
// Admitted as the half-open trial, it frees the trial slot, or the
// breaker would stay half-open forever.
func TestCancelledCallIsNeutral(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, MaxAttempts: 1, BreakerThreshold: 1, BreakerCooldown: 5 * time.Second})
	clk := stubClock(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := func() {
		t.Helper()
		_, err := c.EvalCtx(ctx, "s1", server.EvalRequest{Formulas: []string{"p"}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call error: %v", err)
		}
	}
	cancelled()
	if st := c.Stats(); st.Breaker != "closed" || st.ConsecutiveFails != 0 {
		t.Fatalf("cancelled call fed the breaker: %+v", st)
	}

	// Trip the breaker, wait out the cooldown, and let a cancelled call be
	// the half-open trial: the next call must still be admitted as the trial.
	if _, err := c.Health(); err == nil {
		t.Fatal("call against a 500 should fail")
	}
	if st := c.Stats(); st.Breaker != "open" {
		t.Fatalf("breaker after a failed call: %+v", st)
	}
	clk.now = clk.now.Add(6 * time.Second)
	cancelled()
	if err := c.breakerAdmit(); err != nil {
		t.Fatalf("cancelled half-open trial kept the trial slot: %v", err)
	}
	if st := c.Stats(); st.Breaker != "half-open" || st.ConsecutiveFails != 1 {
		t.Fatalf("breaker after admitting the next trial: %+v", st)
	}
}
