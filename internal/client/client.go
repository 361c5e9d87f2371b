// Package client is the retrying knowd client: the other half of the
// daemon's robustness contract. Every mutating call carries a
// deterministic idempotency key that is REUSED across retries, so the
// server's single-flight dedupe window can collapse duplicates — whether
// they come from this client's own retry loop or from a duplicating
// network in between. Transient failures (connection errors, 429, 503,
// 5xx) back off exponentially with full jitter drawn from the repo's
// seeded splitmix64 stream, honoring Retry-After; a run of consecutive
// failures opens a circuit breaker (Breaker, the state machine the router's
// health checker shares) that fails fast until a cooldown elapses and a
// half-open probe is allowed through.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/server"
)

// ErrCircuitOpen fails a call fast while the breaker cooldown runs.
var ErrCircuitOpen = errors.New("client: circuit breaker open")

// ErrResponseTooLarge fails a call whose response body exceeds
// server.MaxResponseBytes. It is definitive, like an APIError: the daemon
// answered, so the call is not retried and does not count against the
// breaker, and a truncated body is never decoded.
var ErrResponseTooLarge = fmt.Errorf("client: response body exceeds the %d-byte cap", server.MaxResponseBytes)

// APIError is a non-retryable server verdict (4xx other than 429).
type APIError struct {
	Status int
	Msg    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server said %d: %s", e.Status, e.Msg)
}

// Config carries the client knobs; zero values mean defaults.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7433".
	BaseURL string
	// Seed drives the jitter stream (and, with DeterministicKeys, the
	// idempotency-key sequence). Default 1.
	Seed int64
	// DeterministicKeys derives the idempotency-key prefix purely from
	// Seed, so a seeded chaos run replays the identical request stream.
	// Default false: every client instance mints a unique random prefix,
	// so separate processes (repeated CLI invocations, say) can never
	// collide in the server's dedupe window.
	DeterministicKeys bool
	// MaxAttempts bounds tries per call (first try included). Default 6.
	MaxAttempts int
	// BaseDelay is the first backoff ceiling; attempt k waits a uniform
	// draw from [0, min(MaxDelay, BaseDelay<<k)). Default 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling. Default 2s.
	MaxDelay time.Duration
	// BreakerThreshold is how many consecutive failed calls open the
	// breaker. Default 5.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before letting a
	// half-open probe through. Default 5s.
	BreakerCooldown time.Duration
	// HTTPClient overrides the transport (default http.Client with a 30s
	// timeout).
	HTTPClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 50 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// Client talks to one knowd daemon. Safe for concurrent use.
type Client struct {
	cfg Config

	mu      sync.Mutex
	jitter  *faults.Stream
	keyPfx  string
	keySeq  uint64
	breaker Breaker // fed once per call; a cancelled call is neutral

	now   func() time.Time      // injectable for tests
	sleep func(d time.Duration) // injectable for tests
	rand  func(n int64) int64   // injectable for tests; default jitter stream

	// retries counts every retried attempt (total attempts minus calls).
	retries int
	// sheds counts 429/503 responses observed across attempts: the
	// server-side backpressure this client has been leaned on with. A
	// router reads it through Stats to down-weight a shedding shard.
	sheds int
}

// New builds a client from cfg.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	c := &Client{
		cfg:     cfg,
		jitter:  faults.NewStream(cfg.Seed),
		breaker: Breaker{Threshold: cfg.BreakerThreshold, Cooldown: cfg.BreakerCooldown},
		now:     time.Now,
		sleep:   time.Sleep,
	}
	if cfg.DeterministicKeys {
		c.keyPfx = fmt.Sprintf("c%x", cfg.Seed)
	} else {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Fall back to a process-unique-ish prefix; colliding with
			// another client also requires colliding sequence numbers.
			binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano())^uint64(os.Getpid())<<32)
		}
		c.keyPfx = hex.EncodeToString(b[:])
	}
	c.rand = func(n int64) int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.jitter.Intn(int(n)))
	}
	return c
}

// Stats is the client's own telemetry: breaker state, failure run length,
// and backpressure counts. It is the client-side mirror of server.Stats —
// a router health-checks shards off this instead of shadow-counting.
type Stats struct {
	// Breaker is "closed", "open", or "half-open" (cooldown elapsed or a
	// probe in flight; the next admitted call decides).
	Breaker string
	// ConsecutiveFails is the current run of failed calls; BreakerThreshold
	// of them opens the breaker.
	ConsecutiveFails int
	// Retries counts retried attempts (total attempts minus calls).
	Retries int
	// Sheds counts 429/503 responses observed across all attempts.
	Sheds int
}

// Stats snapshots the client's breaker and backpressure telemetry.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Breaker: c.breaker.State(c.now()), ConsecutiveFails: c.breaker.Fails(), Retries: c.retries, Sheds: c.sheds}
}

// nextKey mints the idempotency key for one logical call. The sequence is
// deterministic in the seed, so a chaos run can be replayed exactly.
func (c *Client) nextKey() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keySeq++
	return fmt.Sprintf("%s-%d", c.keyPfx, c.keySeq)
}

// breakerAdmit fails a call fast unless the breaker admits it.
func (c *Client) breakerAdmit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.breaker.Allow(c.now()) {
		return ErrCircuitOpen
	}
	return nil
}

func (c *Client) recordOutcome(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.breaker.Record(err == nil, c.now())
}

// recordNeutral ends a context-cancelled call (a hedge loser is cancelled
// on purpose): it says nothing about the daemon's health.
func (c *Client) recordNeutral() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.breaker.Release()
}

// retryable reports whether a response status is worth another attempt.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// call performs one logical API call with retries. in is sent as its JSON
// encoding, or as is when it is a []byte; out, when non-nil, is
// filled from the final 2xx body: decoded as JSON (an *EvalResponse
// through server.DecodeEvalResponse), or stored raw when out is a
// *[]byte. Mutating calls pass idempotent=true to attach a per-call
// Idempotency-Key reused across every attempt. ctx cancellation aborts the
// in-flight attempt and the retry loop.
func (c *Client) call(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	if err := c.breakerAdmit(); err != nil {
		return err
	}
	var body []byte
	switch in := in.(type) {
	case nil:
	case []byte:
		body = in // already encoded: a relay forwards its client's bytes
	default:
		// Without HTML escaping, the & < > of a formula cost one byte
		// each on the wire instead of six.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(in); err != nil {
			c.recordOutcome(err)
			return err
		}
		body = buf.Bytes()
	}
	key := ""
	if idempotent {
		key = c.nextKey()
	}
	err := c.attemptLoop(ctx, method, path, key, body, out)
	// A definitive 4xx verdict means the server is healthy and answering;
	// only transport failures and exhausted retries feed the breaker. A
	// cancelled call says nothing about the daemon at all.
	var apiErr *APIError
	switch {
	case errors.As(err, &apiErr) || errors.Is(err, ErrResponseTooLarge):
		c.recordOutcome(nil)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		c.recordNeutral()
	default:
		c.recordOutcome(err)
	}
	return err
}

func (c *Client) attemptLoop(ctx context.Context, method, path, key string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return fmt.Errorf("client: %s %s: %w", method, path, lastErr)
		}
		if attempt > 0 {
			c.mu.Lock()
			c.retries++
			c.mu.Unlock()
		}
		req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := c.cfg.HTTPClient.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("client: %s %s: %w", method, path, ctx.Err())
			}
			lastErr = err
			c.backoff(attempt, 0)
			continue
		}
		data, rerr := readBody(resp)
		resp.Body.Close()
		if rerr != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("client: %s %s: %w", method, path, ctx.Err())
			}
			lastErr = rerr
			c.backoff(attempt, 0)
			continue
		}
		if len(data) > server.MaxResponseBytes {
			return fmt.Errorf("client: %s %s: %w", method, path, ErrResponseTooLarge)
		}
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			switch out := out.(type) {
			case nil:
				return nil
			case *[]byte:
				*out = data
				return nil
			case *server.EvalResponse:
				return server.DecodeEvalResponse(data, out)
			default:
				return json.Unmarshal(data, out)
			}
		case retryable(resp.StatusCode):
			if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
				c.mu.Lock()
				c.sheds++
				c.mu.Unlock()
			}
			lastErr = fmt.Errorf("client: server said %d: %s", resp.StatusCode, bytes.TrimSpace(data))
			c.backoff(attempt, parseRetryAfter(resp.Header.Get("Retry-After")))
			continue
		default:
			var eb struct {
				Error string `json:"error"`
			}
			_ = json.Unmarshal(data, &eb)
			if eb.Error == "" {
				eb.Error = string(bytes.TrimSpace(data))
			}
			return &APIError{Status: resp.StatusCode, Msg: eb.Error}
		}
	}
	return fmt.Errorf("client: %s %s failed after %d attempts: %w", method, path, c.cfg.MaxAttempts, lastErr)
}

// readBody reads at most server.MaxResponseBytes+1 bytes of resp's body,
// as io.ReadAll would. A Content-Length within the cap sizes the buffer up
// front, one byte over so that reading to EOF never grows it; net/http
// reports a body shorter than its Content-Length as io.ErrUnexpectedEOF.
func readBody(resp *http.Response) ([]byte, error) {
	size := int64(512)
	if n := resp.ContentLength; n >= 0 && n <= server.MaxResponseBytes {
		size = n + 1
	}
	r := io.LimitReader(resp.Body, server.MaxResponseBytes+1)
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// backoff sleeps a full-jitter exponential delay: uniform in [0, ceiling)
// where ceiling doubles per attempt, floored by any server Retry-After.
func (c *Client) backoff(attempt int, retryAfter time.Duration) {
	ceiling := c.cfg.BaseDelay << uint(attempt)
	if ceiling > c.cfg.MaxDelay || ceiling <= 0 {
		ceiling = c.cfg.MaxDelay
	}
	d := time.Duration(c.rand(int64(ceiling)))
	if retryAfter > d {
		d = retryAfter
	}
	c.sleep(d)
}

func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// API surface.

// Health reports the daemon's health status string ("ok" or "draining").
// Note a draining daemon answers 503, which this retrying path treats as
// transient; a health checker that wants a single unretried probe should
// issue its own GET.
func (c *Client) Health() (string, error) {
	var m map[string]string
	if err := c.call(context.Background(), "GET", "/healthz", nil, &m, false); err != nil {
		return "", err
	}
	return m["status"], nil
}

// Systems lists the loadable system specs.
func (c *Client) Systems() ([]server.SystemInfo, error) {
	var out []server.SystemInfo
	err := c.call(context.Background(), "GET", "/v1/systems", nil, &out, false)
	return out, err
}

// ServerStats snapshots the daemon's counters (the remote counterpart of
// the local Stats telemetry accessor).
func (c *Client) ServerStats() (server.Stats, error) {
	var out server.Stats
	err := c.call(context.Background(), "GET", "/v1/stats", nil, &out, false)
	return out, err
}

// Sessions lists the live sessions.
func (c *Client) Sessions() ([]server.SessionState, error) {
	var out []server.SessionState
	err := c.call(context.Background(), "GET", "/v1/sessions", nil, &out, false)
	return out, err
}

// Open creates a session on a system spec; seed 0 uses the server's seed.
func (c *Client) Open(system string, seed int64) (server.SessionState, error) {
	var out server.SessionState
	err := c.call(context.Background(), "POST", "/v1/sessions", server.OpenRequest{System: system, Seed: seed}, &out, true)
	return out, err
}

// Get fetches one session's current chain state.
func (c *Client) Get(session string) (server.SessionState, error) {
	return c.GetCtx(context.Background(), session)
}

// GetCtx is Get under a caller context: a hedged read cancels the losing
// leg through it.
func (c *Client) GetCtx(ctx context.Context, session string) (server.SessionState, error) {
	var out server.SessionState
	err := c.call(ctx, "GET", "/v1/sessions/"+session, nil, &out, false)
	return out, err
}

// Eval evaluates a formula batch on a session.
func (c *Client) Eval(session string, req server.EvalRequest) (server.EvalResponse, error) {
	return c.EvalCtx(context.Background(), session, req)
}

// EvalCtx is Eval under a caller context. Cancellation aborts the
// in-flight attempt and propagates server-side into EvalBatchCtx, so a
// hedge loser stops burning the shard's compute between formulas.
func (c *Client) EvalCtx(ctx context.Context, session string, req server.EvalRequest) (server.EvalResponse, error) {
	var out server.EvalResponse
	err := c.call(ctx, "POST", "/v1/sessions/"+session+"/eval", req, &out, true)
	return out, err
}

// EvalRawCtx is EvalCtx for a relay: it posts body, an encoded
// EvalRequest, unchanged and returns the response body undecoded, in the
// eval wire format internal/server owns, so both directions are forwarded
// verbatim. The server validates body.
func (c *Client) EvalRawCtx(ctx context.Context, session string, body []byte) ([]byte, error) {
	var out []byte
	err := c.call(ctx, "POST", "/v1/sessions/"+session+"/eval", body, &out, true)
	return out, err
}

// Announce publicly announces a formula on a session.
func (c *Client) Announce(session, formula string) (server.SessionState, error) {
	var out server.SessionState
	err := c.call(context.Background(), "POST", "/v1/sessions/"+session+"/announce", server.AnnounceRequest{Formula: formula}, &out, true)
	return out, err
}

// AnnounceAt announces with a chain-position precondition: the formula
// must become link link+1 of the chain. A retry whose original applied but
// whose response was lost — even across a daemon crash-restart, where the
// dedupe window is gone — replays the resulting state instead of advancing
// the chain twice; a genuine position mismatch is a 409 APIError.
func (c *Client) AnnounceAt(session, formula string, link int) (server.SessionState, error) {
	var out server.SessionState
	err := c.call(context.Background(), "POST", "/v1/sessions/"+session+"/announce",
		server.AnnounceRequest{Formula: formula, Link: &link}, &out, true)
	return out, err
}

// Close deletes a session.
func (c *Client) Close(session string) error {
	return c.call(context.Background(), "DELETE", "/v1/sessions/"+session, nil, nil, true)
}
