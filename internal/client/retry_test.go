package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// TestBackoffRetryAfterFloor unit-tests the backoff schedule directly: the
// jittered delay doubles its ceiling per attempt up to MaxDelay, and a
// server Retry-After is a floor over the jitter, never replaced by a
// smaller random draw.
func TestBackoffRetryAfterFloor(t *testing.T) {
	c := New(Config{BaseURL: "http://unused", BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond})
	st := stubClock(c)
	c.rand = func(n int64) int64 { return n - 1 } // always draw the ceiling

	for attempt, want := range []time.Duration{
		10*time.Millisecond - 1, // attempt 0: ceiling BaseDelay
		20*time.Millisecond - 1, // attempt 1: doubled
		40*time.Millisecond - 1,
		80*time.Millisecond - 1, // attempt 3: hits MaxDelay
		80*time.Millisecond - 1, // attempt 4: capped
	} {
		c.backoff(attempt, 0)
		if got := st.slept[attempt]; got != want {
			t.Errorf("attempt %d slept %v, want %v", attempt, got, want)
		}
	}
	// A shift past 63 bits goes non-positive; the ceiling must saturate at
	// MaxDelay instead of sleeping zero (or negative) forever.
	c.backoff(200, 0)
	if got := st.slept[len(st.slept)-1]; got != 80*time.Millisecond-1 {
		t.Errorf("overflowed attempt slept %v", got)
	}

	// Retry-After above the jitter draw wins...
	c.backoff(0, time.Second)
	if got := st.slept[len(st.slept)-1]; got != time.Second {
		t.Errorf("Retry-After floor: slept %v, want 1s", got)
	}
	// ...and below it, the jitter stands: a stale tiny hint cannot shrink
	// an already-large backoff.
	c.backoff(3, time.Millisecond)
	if got := st.slept[len(st.slept)-1]; got != 80*time.Millisecond-1 {
		t.Errorf("small Retry-After shrank the backoff to %v", got)
	}
}

func TestParseRetryAfter(t *testing.T) {
	for h, want := range map[string]time.Duration{
		"":     0,
		"2":    2 * time.Second,
		"0":    0,
		"-3":   0,
		"soon": 0, // HTTP-date form is unsupported, treated as absent
	} {
		if got := parseRetryAfter(h); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", h, got, want)
		}
	}
}

// TestBreakerProbeFailureReopens: a failed half-open probe snaps the
// breaker open again for a full cooldown, and while the probe is in
// flight every other call is rejected without touching the network.
func TestBreakerProbeFailureReopens(t *testing.T) {
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
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second,
	})
	st := stubClock(c)

	for i := 0; i < 2; i++ {
		if _, err := c.Health(); err == nil {
			t.Fatalf("call %d unexpectedly succeeded", i)
		}
	}
	if _, err := c.Health(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker not open: %v", err)
	}

	// Cooldown lapses but the daemon is still down: the probe goes out,
	// fails, and the breaker reopens from the probe's failure time.
	st.now = st.now.Add(11 * time.Second)
	if _, err := c.Health(); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("failed probe: %v", err)
	}
	if got := n.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 trips + 1 probe)", got)
	}
	if _, err := c.Health(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker did not reopen after failed probe: %v", err)
	}
	if got := n.Load(); got != 3 {
		t.Fatalf("reopened breaker hit the server: %d calls", got)
	}

	// Probe exclusion: with the cooldown lapsed, exactly one call may be
	// the probe; a second admit while it is in flight is rejected.
	st.now = st.now.Add(11 * time.Second)
	if err := c.breakerAdmit(); err != nil {
		t.Fatalf("probe admit: %v", err)
	}
	if err := c.breakerAdmit(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second call admitted beside the probe: %v", err)
	}
	// The probe succeeds: breaker closes, everyone is admitted again.
	healthy.Store(true)
	c.recordOutcome(nil)
	if _, err := c.Health(); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if err := c.breakerAdmit(); err != nil {
		t.Fatalf("closed breaker rejected a call: %v", err)
	}
}

// TestDeterministicKeySequenceReplay: two clients with equal seeds mint
// the identical idempotency-key sequence across many calls and across
// retries, so a replayed chaos run re-presents the same keys and the
// server's dedupe window recognizes every retry.
func TestDeterministicKeySequenceReplay(t *testing.T) {
	var n atomic.Int32
	keys := make(chan string, 64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		keys <- r.Header.Get("Idempotency-Key")
		// Every third attempt fails transiently, forcing retries into the
		// sequence without advancing the per-call key.
		if n.Add(1)%3 == 0 {
			http.Error(w, `{"error":"overload"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	sequence := func(seed int64) []string {
		c := New(Config{BaseURL: ts.URL, Seed: seed, DeterministicKeys: true, BaseDelay: time.Microsecond})
		stubClock(c)
		for i := 0; i < 6; i++ {
			if _, err := c.Announce("s1", "p"); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		for len(keys) > 0 {
			got = append(got, <-keys)
		}
		return got
	}

	a := sequence(7)
	n.Store(0) // realign the failure pattern for the replay
	b := sequence(7)
	if len(a) != len(b) {
		t.Fatalf("replay made %d attempts, original made %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("key %d diverged: %q vs %q", i, a[i], b[i])
		}
	}
	// Retries reuse their call's key, so the attempt stream must contain
	// adjacent duplicates (the transient failures) but distinct keys per
	// logical call.
	dups, distinct := 0, map[string]bool{}
	for i, k := range a {
		distinct[k] = true
		if i > 0 && a[i-1] == k {
			dups++
		}
	}
	if dups == 0 {
		t.Fatal("no retry reused its key; the failure pattern never fired")
	}
	if len(distinct) != 6 {
		t.Fatalf("%d distinct keys for 6 logical calls", len(distinct))
	}

	n.Store(0)
	c := sequence(8)
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds minted identical key sequences")
		}
	}
}

// TestOversizedResponseIsDefinitive: a body past server.MaxResponseBytes
// is neither truncated into a decode error nor retried, and it does not
// count against the breaker — the daemon answered.
func TestOversizedResponseIsDefinitive(t *testing.T) {
	var hits atomic.Int64
	big := make([]byte, server.MaxResponseBytes+1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write(big)
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL, BreakerThreshold: 1})
	stubClock(c)

	_, err := c.Eval("s1", server.EvalRequest{Formulas: []string{"p"}})
	if !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("err = %v, want ErrResponseTooLarge", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("%d attempts, want 1", n)
	}
	if st := c.Stats(); st.Breaker != "closed" || st.ConsecutiveFails != 0 || st.Retries != 0 {
		t.Fatalf("stats after an oversized answer: %+v", st)
	}
}

// TestFramedOversizedResponseIsDefinitive: a body whose Content-Length is
// past server.MaxResponseBytes is read as unframed (never presized to the
// declared length) and is ErrResponseTooLarge, with no retry and no
// breaker count. A body at the cap is read into a buffer sized once from
// its Content-Length.
func TestFramedOversizedResponseIsDefinitive(t *testing.T) {
	var hits, size atomic.Int64
	size.Store(server.MaxResponseBytes + 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Length", strconv.FormatInt(size.Load(), 10))
		w.Write(make([]byte, size.Load()))
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL, BreakerThreshold: 1})
	stubClock(c)

	_, err := c.Eval("s1", server.EvalRequest{Formulas: []string{"p"}})
	if !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("err = %v, want ErrResponseTooLarge", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("%d attempts, want 1", n)
	}
	if st := c.Stats(); st.Breaker != "closed" || st.ConsecutiveFails != 0 || st.Retries != 0 {
		t.Fatalf("stats after an oversized answer: %+v", st)
	}

	size.Store(server.MaxResponseBytes)
	raw, err := c.EvalRawCtx(context.Background(), "s1", []byte(`{"formulas":["p"]}`))
	if err != nil || len(raw) != server.MaxResponseBytes {
		t.Fatalf("body at the cap: %d bytes, err %v", len(raw), err)
	}
	if cap(raw) != server.MaxResponseBytes+1 {
		t.Fatalf("body at the cap read into a %d-byte buffer, want one presized to the cap+1", cap(raw))
	}
}

// TestShortContentLengthIsRetried: a body shorter than its Content-Length
// is a transport error and is retried, even when the bytes that did
// arrive form a complete response; it is never decoded.
func TestShortContentLengthIsRetried(t *testing.T) {
	var hits atomic.Int64
	body := server.AppendEvalResponse(nil, server.EvalResponse{Session: "s1", Link: 0, Verdicts: []server.Verdict{{Formula: "p", Count: 1}}})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := len(body)
		if hits.Add(1) == 1 {
			n += 5 // promise more than is sent: the connection closes short
		}
		w.Header().Set("Content-Length", strconv.Itoa(n))
		w.Write(body)
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL})
	stubClock(c)

	resp, err := c.Eval("s1", server.EvalRequest{Formulas: []string{"p"}})
	if err != nil {
		t.Fatal(err)
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("%d attempts, want 2: the short body was taken as an answer", n)
	}
	if resp.Session != "s1" || len(resp.Verdicts) != 1 || resp.Verdicts[0].Count != 1 {
		t.Fatalf("decoded %+v", resp)
	}
	if st := c.Stats(); st.Retries != 1 || st.ConsecutiveFails != 0 {
		t.Fatalf("stats after a retried short body: %+v", st)
	}
}

// BenchmarkReadBody reads a Content-Length-framed eval body over loopback
// HTTP, at the size of a muddy:12 tower batch with world sets (16
// verdicts of 1024 of 4096 worlds, about 12 KB) and of one without: readBody's
// buffer sized from the header against io.ReadAll's growing one.
func BenchmarkReadBody(b *testing.B) {
	for _, worlds := range []int{0, 1024} {
		r := server.EvalResponse{Session: "s1", Link: 4}
		for i := range 16 {
			v := server.Verdict{Formula: fmt.Sprintf("E^%d p%d", i%3+1, i)}
			for w := range worlds {
				v.Worlds = append(v.Worlds, 4*w+i%4)
			}
			v.Count = len(v.Worlds)
			r.Verdicts = append(r.Verdicts, v)
		}
		body := server.AppendEvalResponse(nil, r)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
		}))
		for name, read := range map[string]func(*http.Response) ([]byte, error){
			"presized": readBody,
			"readall": func(resp *http.Response) ([]byte, error) {
				return io.ReadAll(io.LimitReader(resp.Body, server.MaxResponseBytes+1))
			},
		} {
			b.Run(fmt.Sprintf("bytes=%d/%s", len(body), name), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for range b.N {
					resp, err := ts.Client().Get(ts.URL)
					if err != nil {
						b.Fatal(err)
					}
					data, err := read(resp)
					resp.Body.Close()
					if err != nil || len(data) != len(body) {
						b.Fatalf("read %d of %d bytes: %v", len(data), len(body), err)
					}
				}
			})
		}
		ts.Close()
	}
}
