package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/server"
)

// Config carries the router knobs; zero values mean defaults.
type Config struct {
	// Shards is the upstream fleet (use ParseShards for the CLI syntax).
	Shards []Shard
	// Seed drives the hedge-delay jitter and the per-shard client jitter
	// streams, and is the session seed applied when an OpenRequest carries
	// none. Default 1.
	Seed int64
	// HedgeAfter is the base latency threshold before a read-only request
	// is hedged to the standby replica; the actual per-request delay is a
	// seeded draw from [HedgeAfter/2, 3*HedgeAfter/2). Zero means 25ms;
	// negative disables hedging.
	HedgeAfter time.Duration
	// Health configures the active health checker.
	Health HealthConfig
	// ShardMaxAttempts / ShardBaseDelay / ShardMaxDelay tune the primary
	// data-path client per shard (defaults follow internal/client).
	ShardMaxAttempts int
	ShardBaseDelay   time.Duration
	ShardMaxDelay    time.Duration
	// DedupeWindow is how many idempotency keys the router remembers.
	// Default 256.
	DedupeWindow int
	// HTTPClient overrides the shard transport (tests).
	HTTPClient *http.Client
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 25 * time.Millisecond
	}
	c.Health = c.Health.withDefaults()
	return c
}

// csession is the router's record of one logical session: where its
// primary and standby replicas live, and the full announcement source
// chain — the replay script that lets the router rebuild the session on
// any healthy shard. All fields are guarded by mu, which also serializes
// the session's mutations end to end (mirroring the shard-side lock).
type csession struct {
	mu  sync.Mutex
	id  string // router-assigned "r<n>"
	key string // rendezvous key: the system spec
	sys string
	// seed is the resolved session seed (never 0), so a replayed open
	// lands on identical fault sampling regardless of shard defaults.
	seed    int64
	sources []string // applied announcement formulas, in chain order

	primary    string // shard ID
	primarySID string // session ID on the primary
	standby    string // shard ID of the warm replica; "" when none
	standbySID string
	// standbyLink is how many links the standby chain has applied; it
	// equals len(sources) when the standby is promotable in-place and -1
	// when the replica is stale and must be rebuilt.
	standbyLink int

	last server.SessionState // latest state answered by the active replica
}

// placement is an immutable snapshot of a session's replica layout, taken
// under cs.mu and then used lock-free by the hedging machinery.
type placement struct {
	primary, primarySID string
	standby, standbySID string
	inSync              bool
}

func (cs *csession) placementLocked() placement {
	return placement{
		primary: cs.primary, primarySID: cs.primarySID,
		standby: cs.standby, standbySID: cs.standbySID,
		inSync: cs.standby != "" && cs.standbyLink == len(cs.sources),
	}
}

// shardMetrics aggregates one shard's data-path telemetry at the router.
type shardMetrics struct {
	requests int64
	errs     int64
	hist     loadgen.Hist
}

// Router fronts the shard fleet. Create with New, serve via Serve or
// mount Handler on a test server.
type Router struct {
	cfg    Config
	shards []Shard
	byID   map[string]Shard
	// clients carries the primary data path per shard; quick carries a
	// fail-fast sibling for best-effort maintenance (standby catch-up,
	// stray-session closes) that must never stall the serving path.
	clients map[string]*client.Client
	quick   map[string]*client.Client
	health  *checker
	dedupe  *server.Deduper
	mux     *http.ServeMux
	http    *http.Server

	draining atomic.Bool

	mu       sync.Mutex
	sessions map[string]*csession
	nextID   int64

	jitterMu sync.Mutex
	jitter   *faults.Stream

	metricsMu sync.Mutex
	perShard  map[string]*shardMetrics

	opens, closes   atomic.Int64
	failovers       atomic.Int64 // failover attempts, however resolved
	handoffs        atomic.Int64 // failovers resolved by promoting the standby
	reopens         atomic.Int64 // failovers resolved by full source replay
	standbyRebuilds atomic.Int64
	hedges          atomic.Int64
	hedgeWins       atomic.Int64
	hedgedMutations atomic.Int64 // tripwire; must stay 0
	restarts        atomic.Int64 // shard incarnations detected via boot-id change
	dupOpens        atomic.Int64 // stray upstream sessions closed by reconcile
	panics          atomic.Int64
}

// New builds a router over the shard fleet.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	seen := make(map[string]bool)
	for _, sh := range cfg.Shards {
		if sh.ID == "" || sh.Addr == "" || sh.Weight < 1 || seen[sh.ID] {
			return nil, fmt.Errorf("cluster: invalid shard %+v (use ParseShards)", sh)
		}
		seen[sh.ID] = true
	}
	rt := &Router{
		cfg:      cfg,
		shards:   slices.Clone(cfg.Shards),
		byID:     make(map[string]Shard),
		clients:  make(map[string]*client.Client),
		quick:    make(map[string]*client.Client),
		sessions: make(map[string]*csession),
		jitter:   faults.SubStream(cfg.Seed, 0x4ed6e), // hedge-delay stream
		perShard: make(map[string]*shardMetrics),
	}
	for _, sh := range rt.shards {
		rt.byID[sh.ID] = sh
		seed := cfg.Seed ^ int64(shardKeyHash(sh.ID, "client")>>1)
		rt.clients[sh.ID] = client.New(client.Config{
			BaseURL:     sh.Addr,
			Seed:        seed,
			MaxAttempts: cfg.ShardMaxAttempts,
			BaseDelay:   cfg.ShardBaseDelay,
			MaxDelay:    cfg.ShardMaxDelay,
			// The checker reads this breaker: one cooldown per shard.
			BreakerCooldown: cfg.Health.ReadmitAfter,
			HTTPClient:      cfg.HTTPClient,
		})
		rt.quick[sh.ID] = client.New(client.Config{
			BaseURL:          sh.Addr,
			Seed:             seed ^ 0x71c,
			MaxAttempts:      3,
			BaseDelay:        2 * time.Millisecond,
			MaxDelay:         20 * time.Millisecond,
			BreakerThreshold: 1 << 30, // best-effort path: fail per call, never latch
			HTTPClient:       cfg.HTTPClient,
		})
		rt.perShard[sh.ID] = &shardMetrics{}
	}
	rt.health = newChecker(cfg.Health, rt.shards, rt.clients, cfg.Logf)
	rt.health.onEject = rt.onEject
	rt.health.onReadmit = rt.onReadmit
	rt.health.onRestart = rt.onRestart
	rt.dedupe = server.NewDeduper(cfg.DedupeWindow, cfg.Logf, func() { rt.panics.Add(1) })

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.withRecover(rt.handleHealthz))
	mux.HandleFunc("GET /v1/systems", rt.withRecover(rt.intake(rt.handleSystems)))
	mux.HandleFunc("GET /v1/stats", rt.withRecover(rt.handleStats))
	mux.HandleFunc("GET /v1/report", rt.withRecover(rt.handleReport))
	mux.HandleFunc("GET /v1/sessions", rt.withRecover(rt.intake(rt.handleList)))
	mux.HandleFunc("GET /v1/sessions/{id}", rt.withRecover(rt.intake(rt.handleGet)))
	mux.HandleFunc("POST /v1/sessions", rt.withRecover(rt.dedupe.Wrap(rt.intake(rt.handleOpen))))
	mux.HandleFunc("POST /v1/sessions/{id}/eval", rt.withRecover(rt.dedupe.Wrap(rt.intake(rt.handleEval))))
	mux.HandleFunc("POST /v1/sessions/{id}/announce", rt.withRecover(rt.dedupe.Wrap(rt.intake(rt.handleAnnounce))))
	mux.HandleFunc("DELETE /v1/sessions/{id}", rt.withRecover(rt.dedupe.Wrap(rt.intake(rt.handleClose))))
	mux.HandleFunc("POST /v1/reconcile", rt.withRecover(rt.intake(rt.handleReconcile)))
	rt.mux = mux
	rt.http = &http.Server{Handler: mux}
	return rt, nil
}

// Handler exposes the router's routes (for tests and custom servers).
func (rt *Router) Handler() http.Handler { return rt.mux }

// Serve accepts connections on l until Shutdown, with the health checker
// running for the router's lifetime.
func (rt *Router) Serve(l net.Listener) error {
	rt.health.start()
	err := rt.http.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// StartHealth starts the health checker without serving (tests drive the
// handler directly).
func (rt *Router) StartHealth() { rt.health.start() }

// Shutdown drains the router: new requests are refused with 503 and
// in-flight ones finish (bounded by ctx). Shard-side sessions are left
// alive — the shards own their persistence, and another router instance
// can adopt the fleet.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.draining.Store(true)
	rt.health.halt()
	return rt.http.Shutdown(ctx)
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// Middleware.

func (rt *Router) withRecover(h http.HandlerFunc) http.HandlerFunc {
	return server.Recover(h, rt.logf, func() { rt.panics.Add(1) })
}

func (rt *Router) intake(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rt.draining.Load() {
			w.Header().Set("Retry-After", "1")
			server.WriteError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		h(w, r)
	}
}

// Placement.

// rank returns the routable shards for key, best rendezvous score first.
// Ejected shards score zero weight and are excluded entirely; ties break
// on shard ID so every router ranks identically.
func (rt *Router) rank(key string, exclude string) []Shard {
	type scored struct {
		sh    Shard
		score float64
	}
	ranked := make([]scored, 0, len(rt.shards))
	for _, sh := range rt.shards {
		if sh.ID == exclude {
			continue
		}
		w := rt.health.effectiveWeight(sh.ID, sh.Weight)
		if w <= 0 {
			continue
		}
		ranked = append(ranked, scored{sh, rendezvousScore(sh.ID, key, w)})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].sh.ID < ranked[j].sh.ID
	})
	out := make([]Shard, len(ranked))
	for i, s := range ranked {
		out[i] = s.sh
	}
	return out
}

// Metrics.

func (rt *Router) observe(shard string, t0 time.Time, err error) {
	d := time.Since(t0)
	rt.metricsMu.Lock()
	m := rt.perShard[shard]
	m.requests++
	if err != nil {
		m.errs++
	}
	m.hist.Observe(d)
	rt.metricsMu.Unlock()
}

// Session table.

func (rt *Router) lookup(id string) *csession {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.sessions[id]
}

// sessionList snapshots the table in stable (numeric id) order.
func (rt *Router) sessionList() []*csession {
	rt.mu.Lock()
	out := make([]*csession, 0, len(rt.sessions))
	for _, cs := range rt.sessions {
		out = append(out, cs)
	}
	rt.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		ni, _ := strconv.Atoi(out[i].id[1:])
		nj, _ := strconv.Atoi(out[j].id[1:])
		return ni < nj
	})
	return out
}

// hedgeDelay draws one seeded hedge threshold in [base/2, 3*base/2).
func (rt *Router) hedgeDelay() time.Duration {
	base := rt.cfg.HedgeAfter
	rt.jitterMu.Lock()
	defer rt.jitterMu.Unlock()
	return base/2 + time.Duration(rt.jitter.Intn(int(base)))
}

// hedged runs call against the primary replica and, when the request is
// read-only and the standby is in sync, races a second copy against the
// standby after a seeded latency threshold. First success wins and the
// loser's context is cancelled — which aborts its in-flight attempt and,
// server-side, stops the eval between formulas via EvalBatchCtx. Mutations
// must never take this path: the readOnly flag is a tripwire, not an
// option — passing false counts a hedged mutation and hedging is refused.
func hedged[T any](rt *Router, ctx context.Context, pl placement, readOnly bool,
	call func(context.Context, *client.Client, string) (T, error)) (T, error) {
	if !readOnly {
		// Launch guard: no current caller passes false. Any future code
		// that routes a mutation here trips the asserted-zero counter and
		// gets an unhedged call.
		rt.hedgedMutations.Add(1)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		out   T
		err   error
		hedge bool
		shard string
	}
	ch := make(chan result, 2)
	launch := func(shard, sid string, isHedge bool) {
		go func() {
			t0 := time.Now()
			out, err := call(ctx, rt.clients[shard], sid)
			rt.observe(shard, t0, err)
			ch <- result{out, err, isHedge, shard}
		}()
	}
	launch(pl.primary, pl.primarySID, false)
	inFlight := 1

	var hedgeC <-chan time.Time
	canHedge := readOnly && rt.cfg.HedgeAfter > 0 && pl.inSync &&
		pl.standby != "" && rt.health.usable(pl.standby)
	if canHedge {
		timer := time.NewTimer(rt.hedgeDelay())
		defer timer.Stop()
		hedgeC = timer.C
	}

	var firstErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			rt.hedges.Add(1)
			launch(pl.standby, pl.standbySID, true)
			inFlight++
		case res := <-ch:
			inFlight--
			if res.err == nil {
				if res.hedge {
					rt.hedgeWins.Add(1)
				}
				cancel() // the loser stops burning its shard
				return res.out, nil
			}
			if !res.hedge && definitive(res.err) {
				// The in-sync standby would give the same verdict.
				var zero T
				return zero, res.err
			}
			if firstErr == nil || !res.hedge {
				firstErr = res.err // the primary's error is the authoritative one
			}
			if inFlight == 0 && hedgeC == nil {
				var zero T
				return zero, firstErr
			}
			if inFlight == 0 {
				// Primary failed before the hedge timer; give the standby
				// its chance immediately rather than waiting out the timer.
				hedgeC = nil
				rt.hedges.Add(1)
				launch(pl.standby, pl.standbySID, true)
				inFlight++
			}
		}
	}
}

// definitive reports whether a shard call's error is the shard's verdict
// on the request itself (a 4xx other than a lost session, or an answer
// over the size cap), which passes through rather than moving the read to
// another copy of the session.
func definitive(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Status != http.StatusNotFound ||
		errors.Is(err, client.ErrResponseTooLarge)
}

// readWithFailover performs a hedged read, failing the session over once
// if its primary turns out dead (transport exhaustion or a shard that no
// longer knows the session) and retrying on the new layout.
func readWithFailover[T any](rt *Router, ctx context.Context, cs *csession,
	call func(context.Context, *client.Client, string) (T, error)) (T, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		cs.mu.Lock()
		pl := cs.placementLocked()
		cs.mu.Unlock()
		out, err := hedged(rt, ctx, pl, true, call)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if definitive(err) {
			return out, err
		}
		cs.mu.Lock()
		ferr := rt.failoverLocked(cs, pl.primary)
		cs.mu.Unlock()
		if ferr != nil {
			var zero T
			return zero, lastErr
		}
	}
	var zero T
	return zero, lastErr
}

// Failover.

// failoverLocked moves cs off dead (cs.mu held). The in-sync standby is
// promoted in place when possible; otherwise the session is re-opened on
// the best surviving shard by replaying its persisted announcement
// sources — the announce-link CAS on the new shard absorbs any replayed
// duplicate, so the chain advances exactly once across the handoff. A
// fresh standby is rebuilt afterwards, best effort.
func (rt *Router) failoverLocked(cs *csession, dead string) error {
	if cs.primary != dead {
		return nil // a concurrent path already moved it
	}
	rt.failovers.Add(1)
	if cs.standby != "" && cs.standby != dead &&
		cs.standbyLink == len(cs.sources) && rt.health.usable(cs.standby) {
		oldSID := cs.primarySID
		cs.primary, cs.primarySID = cs.standby, cs.standbySID
		cs.standby, cs.standbySID, cs.standbyLink = "", "", -1
		rt.handoffs.Add(1)
		rt.logf("failover: %s handed off %s -> %s (standby at link %d)", cs.id, dead, cs.primary, len(cs.sources))
		_ = oldSID // the dead shard's copy is unreachable; reconcile reaps it if the shard returns
	} else {
		moved := false
		for _, sh := range rt.rank(cs.key, dead) {
			if sh.ID == cs.standby && cs.standbySID != "" {
				// Reuse of the stale standby's shard: drop its old copy
				// first so the replay cannot leave two copies behind.
				rt.quick[sh.ID].Close(cs.standbySID)
				cs.standby, cs.standbySID, cs.standbyLink = "", "", -1
			}
			sid, err := rt.replayOn(rt.clients[sh.ID], sh.ID, cs)
			if err != nil {
				rt.logf("failover: %s replay on %s failed: %v", cs.id, sh.ID, err)
				continue
			}
			cs.primary, cs.primarySID = sh.ID, sid
			rt.reopens.Add(1)
			rt.logf("failover: %s re-opened on %s by replaying %d sources", cs.id, sh.ID, len(cs.sources))
			moved = true
			break
		}
		if !moved {
			return fmt.Errorf("cluster: no healthy shard to fail %s over to", cs.id)
		}
		if cs.standby == dead || cs.standby == cs.primary {
			cs.standby, cs.standbySID, cs.standbyLink = "", "", -1
		}
	}
	rt.rebuildStandbyLocked(cs)
	return nil
}

// replayOn re-creates cs on a shard: open with the same system and seed,
// then replay every announcement source at its exact link. Each announce
// carries the CAS precondition, so a duplicated network (or a dedupe hit)
// cannot advance the rebuilt chain twice.
func (rt *Router) replayOn(c *client.Client, shard string, cs *csession) (string, error) {
	t0 := time.Now()
	st, err := c.Open(cs.sys, cs.seed)
	rt.observe(shard, t0, err)
	if err != nil {
		return "", err
	}
	for i, src := range cs.sources {
		t0 = time.Now()
		_, err := c.AnnounceAt(st.Session, src, i)
		rt.observe(shard, t0, err)
		if err != nil {
			rt.quick[shard].Close(st.Session) // best effort; reconcile reaps leftovers
			return "", fmt.Errorf("replay link %d: %w", i, err)
		}
	}
	return st.Session, nil
}

// rebuildStandbyLocked (cs.mu held) drops any stale standby and builds a
// fresh warm replica on the best shard that is neither the primary nor
// unhealthy. Best effort throughout — a session without a standby just
// loses hedging and fast handoff until the next rebuild opportunity.
func (rt *Router) rebuildStandbyLocked(cs *csession) {
	if cs.standby != "" && cs.standbyLink == len(cs.sources) && rt.health.usable(cs.standby) && cs.standby != cs.primary {
		return // current standby is fine
	}
	if cs.standby != "" && cs.standbySID != "" {
		rt.quick[cs.standby].Close(cs.standbySID)
	}
	cs.standby, cs.standbySID, cs.standbyLink = "", "", -1
	for _, sh := range rt.rank(cs.key, cs.primary) {
		sid, err := rt.replayOn(rt.quick[sh.ID], sh.ID, cs)
		if err != nil {
			rt.logf("standby: %s build on %s failed: %v", cs.id, sh.ID, err)
			continue
		}
		cs.standby, cs.standbySID, cs.standbyLink = sh.ID, sid, len(cs.sources)
		rt.standbyRebuilds.Add(1)
		return
	}
}

// catchUpStandbyLocked pushes the newest announcement (cs.mu held, source
// already appended) onto the standby, rebuilding it when it cannot be
// caught up in one step.
func (rt *Router) catchUpStandbyLocked(cs *csession) {
	if cs.standby == "" || !rt.health.usable(cs.standby) || cs.standbyLink != len(cs.sources)-1 {
		rt.rebuildStandbyLocked(cs)
		return
	}
	link := len(cs.sources) - 1
	src := cs.sources[link]
	t0 := time.Now()
	_, err := rt.quick[cs.standby].AnnounceAt(cs.standbySID, src, link)
	rt.observe(cs.standby, t0, err)
	if err != nil {
		rt.logf("standby: %s catch-up on %s failed: %v", cs.id, cs.standby, err)
		cs.standbyLink = -1
		rt.rebuildStandbyLocked(cs)
		return
	}
	cs.standbyLink = len(cs.sources)
}

// Health-checker callbacks.

// evacuate moves every session mapped to shard off it: primaries fail
// over to a ranked successor, standbys are rebuilt elsewhere. Idempotent —
// a session already moved by a concurrent failover is left alone.
func (rt *Router) evacuate(id, why string) {
	for _, cs := range rt.sessionList() {
		cs.mu.Lock()
		switch {
		case cs.primary == id:
			if err := rt.failoverLocked(cs, id); err != nil {
				rt.logf("%s: %s stranded: %v", why, cs.id, err)
			}
		case cs.standby == id:
			cs.standby, cs.standbySID, cs.standbyLink = "", "", -1
			rt.rebuildStandbyLocked(cs)
		}
		cs.mu.Unlock()
	}
}

func (rt *Router) onEject(id string) { rt.evacuate(id, "eject") }

// onRestart fires when a healthy probe reports a new boot id: the shard
// died and came back faster than FailAfter could notice, so every replica
// mapped there belongs to a dead incarnation. The boot-prefixed session
// ids guarantee the stale mappings 404 rather than alias; evacuating them
// eagerly means routed traffic never even pays that 404.
func (rt *Router) onRestart(id string) {
	rt.restarts.Add(1)
	rt.evacuate(id, "restart")
}

func (rt *Router) onReadmit(id string) {
	if n, err := rt.reconcile(id); err != nil {
		rt.logf("readmit: reconcile of %s failed: %v", id, err)
	} else if n > 0 {
		rt.logf("readmit: closed %d stray sessions on %s", n, id)
	}
}

// reconcile closes upstream sessions on shard that the router does not
// map as a primary or standby — the leftovers of failovers away from a
// partitioned-but-alive shard. The shard's session list is fetched FIRST
// and the valid set second: any session created concurrently is recorded
// in its csession (under cs.mu) before the creating call returns, so a
// listed session either shows up valid by the time we lock its csession
// or is genuinely stray. Returns how many strays were closed.
func (rt *Router) reconcile(shard string) (int, error) {
	states, err := rt.clients[shard].Sessions()
	if err != nil {
		return 0, err
	}
	valid := make(map[string]bool)
	for _, cs := range rt.sessionList() {
		cs.mu.Lock()
		if cs.primary == shard && cs.primarySID != "" {
			valid[cs.primarySID] = true
		}
		if cs.standby == shard && cs.standbySID != "" {
			valid[cs.standbySID] = true
		}
		cs.mu.Unlock()
	}
	closed := 0
	for _, st := range states {
		if valid[st.Session] {
			continue
		}
		rt.dupOpens.Add(1)
		rt.logf("reconcile: closing stray session %s (%s, link %d) on %s", st.Session, st.System, st.Link, shard)
		if err := rt.quick[shard].Close(st.Session); err == nil {
			closed++
		}
	}
	return closed, nil
}
