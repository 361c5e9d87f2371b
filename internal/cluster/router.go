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
	"repro/internal/loadgen"
	"repro/internal/server"
)

// Config carries the router knobs; zero values mean defaults.
type Config struct {
	// Shards is the upstream fleet (use ParseShards for the CLI syntax).
	Shards []Shard
	// Seed drives the per-shard client jitter streams, and is the session
	// seed applied when an OpenRequest carries none. Default 1.
	Seed int64
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

	metricsMu sync.Mutex
	perShard  map[string]*shardMetrics

	opens, closes   atomic.Int64
	failovers       atomic.Int64 // failover attempts, however resolved
	handoffs        atomic.Int64 // failovers resolved by promoting the standby
	reopens         atomic.Int64 // failovers resolved by full source replay
	standbyRebuilds atomic.Int64
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

// definitive reports whether a shard call's error is the shard's verdict
// on the request itself (a 4xx other than a lost session, or an answer
// over the size cap), which passes through rather than moving the read to
// another copy of the session.
func definitive(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Status != http.StatusNotFound ||
		errors.Is(err, client.ErrResponseTooLarge)
}

// readWithFailover sends a read to the session's primary, failing the
// session over once if the primary turns out dead (transport exhaustion or
// a shard that no longer knows the session) and retrying on the new layout.
// A read whose caller went away ends there: its cancelled call says
// nothing about the primary.
func readWithFailover[T any](rt *Router, ctx context.Context, cs *csession,
	call func(context.Context, *client.Client, string) (T, error)) (T, error) {
	var out T
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		cs.mu.Lock()
		primary, sid := cs.primary, cs.primarySID
		cs.mu.Unlock()
		t0 := time.Now()
		out, err = call(ctx, rt.clients[primary], sid)
		rt.observe(primary, t0, err)
		if err == nil || definitive(err) || ctx.Err() != nil {
			return out, err
		}
		cs.mu.Lock()
		ferr := rt.failoverLocked(cs, primary)
		cs.mu.Unlock()
		if ferr != nil {
			break
		}
	}
	return out, err
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
// loses fast handoff until the next rebuild opportunity.
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
		rt.moveOffLocked(cs, id, why)
		cs.mu.Unlock()
	}
}

// moveOffLocked (cs.mu held) moves cs's replica on shard elsewhere: a
// primary fails over, a standby is dropped and rebuilt.
func (rt *Router) moveOffLocked(cs *csession, shard, why string) {
	switch {
	case cs.primary == shard:
		if err := rt.failoverLocked(cs, shard); err != nil {
			rt.logf("%s: %s stranded: %v", why, cs.id, err)
		}
	case cs.standby == shard:
		cs.standby, cs.standbySID, cs.standbyLink = "", "", -1
		rt.rebuildStandbyLocked(cs)
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
	if closed, repaired, err := rt.reconcile(id); err != nil {
		rt.logf("readmit: reconcile of %s failed: %v", id, err)
	} else if closed+repaired > 0 {
		rt.logf("readmit: closed %d stray sessions and repaired %d lost replicas on %s", closed, repaired, id)
	}
}

// sidOnLocked (cs.mu held) is the session id of cs's replica on shard, or
// "" when none is mapped there. A session never has both its replicas on
// one shard.
func (cs *csession) sidOnLocked(shard string) string {
	switch shard {
	case cs.primary:
		return cs.primarySID
	case cs.standby:
		return cs.standbySID
	}
	return ""
}

// replica is one upstream copy of a session as the router maps it.
type replica struct {
	cs  *csession
	sid string
}

// replicasOn snapshots the replicas the router maps to shard.
func (rt *Router) replicasOn(shard string) []replica {
	var out []replica
	for _, cs := range rt.sessionList() {
		cs.mu.Lock()
		if sid := cs.sidOnLocked(shard); sid != "" {
			out = append(out, replica{cs, sid})
		}
		cs.mu.Unlock()
	}
	return out
}

// reconcile makes shard hold exactly the replicas the router maps there.
// It closes strays, the leftovers of failovers away from a
// partitioned-but-alive shard, and repairs lost replicas, the mapped
// copies a shard dropped without the router noticing (a restart the health
// checker has not seen, or one that kept its boot id). The mapped replicas are snapshotted BEFORE the shard's
// session list is fetched, so a replica mapped after the fetch cannot read
// as lost; one still mapped to the same id under cs.mu but absent from the
// list is lost, and moves off the shard as an evacuation would move it.
// The valid set for strays is taken AFTER the fetch: any session created
// concurrently is recorded in its csession (under cs.mu) before the
// creating call returns, so a listed session either shows up valid by then
// or is genuinely stray. Returns how many strays were closed and how many
// lost replicas were repaired.
func (rt *Router) reconcile(shard string) (closed, repaired int, err error) {
	mapped := rt.replicasOn(shard)
	states, err := rt.clients[shard].Sessions()
	if err != nil {
		return 0, 0, err
	}
	listed := make(map[string]bool, len(states))
	for _, st := range states {
		listed[st.Session] = true
	}
	valid := make(map[string]bool)
	for _, r := range rt.replicasOn(shard) {
		valid[r.sid] = true
	}
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
	for _, r := range mapped {
		if listed[r.sid] {
			continue
		}
		r.cs.mu.Lock()
		// A closed session keeps its last layout; only a live one is repaired.
		if r.cs.sidOnLocked(shard) == r.sid && rt.lookup(r.cs.id) == r.cs {
			rt.logf("reconcile: %s lost its replica %s on %s", r.cs.id, r.sid, shard)
			rt.moveOffLocked(r.cs, shard, "reconcile")
			repaired++
		}
		r.cs.mu.Unlock()
	}
	return closed, repaired, nil
}
