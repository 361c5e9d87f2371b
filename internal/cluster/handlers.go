package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// RouterStats is the router's counter snapshot.
type RouterStats struct {
	Sessions        int          `json:"sessions"`
	Opens           int64        `json:"opens"`
	Closes          int64        `json:"closes"`
	Failovers       int64        `json:"failovers"`
	Handoffs        int64        `json:"handoffs"`
	Reopens         int64        `json:"reopens"`
	StandbyRebuilds int64        `json:"standby_rebuilds"`
	Hedges          int64        `json:"hedges"`
	HedgeWins       int64        `json:"hedge_wins"`
	HedgedMutations int64        `json:"hedged_mutations"` // tripwire: must be 0
	Restarts        int64        `json:"restarts"`         // incarnation changes caught by boot-id fencing
	DupOpens        int64        `json:"dup_opens"`        // strays reaped by reconcile
	DedupeHits      int64        `json:"dedupe_hits"`
	Panics          int64        `json:"panics"`
	Shards          []ShardStats `json:"shards"`
}

// ShardStats is one shard's health, routing, and latency view.
type ShardStats struct {
	ID               string  `json:"id"`
	Addr             string  `json:"addr"`
	State            string  `json:"state"` // "healthy" | "ejected"
	ConsecutiveFails int     `json:"consecutive_fails"`
	Breaker          string  `json:"breaker"`
	Weight           int     `json:"weight"`
	Penalty          float64 `json:"penalty"`
	EffectiveWeight  float64 `json:"effective_weight"`
	Requests         int64   `json:"requests"`
	Errors           int64   `json:"errors"`
	Sheds            int     `json:"sheds"`
	Retries          int     `json:"retries"`
	Primaries        int     `json:"primaries"`
	Standbys         int     `json:"standbys"`
	LatencyCount     uint64  `json:"latency_count"`
	P50Micros        int64   `json:"p50_micros"`
	P90Micros        int64   `json:"p90_micros"`
	P99Micros        int64   `json:"p99_micros"`
	MaxMicros        int64   `json:"max_micros"`
}

// writeUpstreamErr maps a shard-call failure onto the router's response: a
// definitive shard verdict passes through with its status, a latched
// breaker or transport exhaustion becomes a 502.
func writeUpstreamErr(w http.ResponseWriter, err error, what string) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		server.WriteError(w, apiErr.Status, apiErr.Msg)
		return
	}
	server.WriteError(w, http.StatusBadGateway, fmt.Sprintf("%s: %v", what, err))
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (rt *Router) handleSystems(w http.ResponseWriter, r *http.Request) {
	var lastErr error
	for _, sh := range rt.shards {
		if !rt.health.usable(sh.ID) {
			continue
		}
		t0 := time.Now()
		systems, err := rt.clients[sh.ID].Systems()
		rt.observe(sh.ID, t0, err)
		if err == nil {
			server.WriteJSON(w, http.StatusOK, systems)
			return
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("no healthy shard")
	}
	writeUpstreamErr(w, lastErr, "systems")
}

func (rt *Router) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req server.OpenRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	seed := req.Seed
	if seed == 0 {
		// Resolve at the router so a failover replay reconstructs the same
		// seeded faults regardless of any shard's own default.
		seed = rt.cfg.Seed
	}
	ranked := rt.rank(req.System, "")
	if len(ranked) == 0 {
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, "no healthy shard")
		return
	}
	// The csession is registered (and its lock held) BEFORE the upstream
	// open, so a concurrent reconcile blocks on cs.mu and sees the new
	// upstream session as mapped rather than reaping it as a stray.
	cs := &csession{key: req.System, sys: req.System, seed: seed, standbyLink: -1}
	cs.mu.Lock()
	rt.mu.Lock()
	rt.nextID++
	cs.id = "r" + strconv.FormatInt(rt.nextID, 10)
	rt.sessions[cs.id] = cs
	rt.mu.Unlock()

	var st server.SessionState
	var err error
	opened := false
	for _, sh := range ranked {
		t0 := time.Now()
		st, err = rt.clients[sh.ID].Open(req.System, seed)
		rt.observe(sh.ID, t0, err)
		if err == nil {
			cs.primary, cs.primarySID = sh.ID, st.Session
			opened = true
			break
		}
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			break // a definitive verdict (bad system spec) won't improve elsewhere
		}
	}
	if !opened {
		cs.mu.Unlock()
		rt.mu.Lock()
		delete(rt.sessions, cs.id)
		rt.mu.Unlock()
		writeUpstreamErr(w, err, "open")
		return
	}
	cs.last = st
	rt.rebuildStandbyLocked(cs)
	cs.mu.Unlock()
	rt.opens.Add(1)
	st.Session = cs.id
	server.WriteJSON(w, http.StatusCreated, st)
}

func (rt *Router) handleGet(w http.ResponseWriter, r *http.Request) {
	cs := rt.lookup(r.PathValue("id"))
	if cs == nil {
		server.WriteError(w, http.StatusNotFound, "no such session")
		return
	}
	st, err := readWithFailover(rt, r.Context(), cs,
		func(ctx context.Context, c *client.Client, sid string) (server.SessionState, error) {
			return c.GetCtx(ctx, sid)
		})
	if err != nil {
		writeUpstreamErr(w, err, "get")
		return
	}
	cs.mu.Lock()
	cs.last = st
	cs.mu.Unlock()
	st.Session = cs.id
	server.WriteJSON(w, http.StatusOK, st)
}

func (rt *Router) handleEval(w http.ResponseWriter, r *http.Request) {
	cs := rt.lookup(r.PathValue("id"))
	if cs == nil {
		server.WriteError(w, http.StatusNotFound, "no such session")
		return
	}
	req, ok := server.ReadBody(w, r)
	if !ok {
		return
	}
	// Request and verdicts are relayed, not decoded: internal/server owns
	// the eval wire format, the shard validates the request (its 400
	// passes through writeUpstreamErr), and only the session id of the
	// answer changes on the way through.
	type answer struct {
		body []byte
		sid  string // the shard session that answered: primary or hedge
	}
	ans, err := readWithFailover(rt, r.Context(), cs,
		func(ctx context.Context, c *client.Client, sid string) (answer, error) {
			body, err := c.EvalRawCtx(ctx, sid, req)
			return answer{body, sid}, err
		})
	if err != nil {
		writeUpstreamErr(w, err, "eval")
		return
	}
	body, err := server.ResessionEval(ans.body, ans.sid, cs.id)
	if err != nil {
		// A shard that answered 200 with a foreign body is broken in a way
		// a failover would not fix; report it rather than guess.
		server.WriteError(w, http.StatusBadGateway, fmt.Sprintf("eval: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (rt *Router) handleAnnounce(w http.ResponseWriter, r *http.Request) {
	cs := rt.lookup(r.PathValue("id"))
	if cs == nil {
		server.WriteError(w, http.StatusNotFound, "no such session")
		return
	}
	var req server.AnnounceRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		at := len(cs.sources)
		use := at
		if req.Link != nil {
			// The client's own CAS precondition forwards untouched, so a
			// stale retry gets the shard's replay semantics through the
			// router; without one the router imposes its chain position.
			use = *req.Link
		}
		t0 := time.Now()
		st, err := rt.clients[cs.primary].AnnounceAt(cs.primarySID, req.Formula, use)
		rt.observe(cs.primary, t0, err)
		if err == nil {
			if st.Link == at+1 {
				cs.sources = append(cs.sources, req.Formula)
			}
			// st.Link == at means the shard replayed an already-applied
			// announce (the client retried a lost response): the router's
			// source chain already matches and stays put.
			cs.last = st
			rt.catchUpStandbyLocked(cs)
			st.Session = cs.id
			server.WriteJSON(w, http.StatusOK, st)
			return
		}
		lastErr = err
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Status != http.StatusNotFound {
			server.WriteError(w, apiErr.Status, apiErr.Msg)
			return
		}
		// Transport exhaustion, breaker, or a shard that lost the session:
		// fail over and retry once. The retry re-announces with the same
		// precondition; if the dead primary had already applied it, the
		// successor's replayed chain plus the CAS keeps it exactly-once.
		if ferr := rt.failoverLocked(cs, cs.primary); ferr != nil {
			server.WriteError(w, http.StatusBadGateway, fmt.Sprintf("announce: %v (failover: %v)", err, ferr))
			return
		}
	}
	writeUpstreamErr(w, lastErr, "announce")
}

func (rt *Router) handleClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cs := rt.lookup(id)
	if cs == nil {
		server.WriteError(w, http.StatusNotFound, "no such session")
		return
	}
	cs.mu.Lock()
	// Best-effort upstream closes: a dead replica's copy is unreachable
	// anyway, and reconcile reaps whatever survives a partition.
	if cs.primarySID != "" {
		t0 := time.Now()
		err := rt.quick[cs.primary].Close(cs.primarySID)
		rt.observe(cs.primary, t0, err)
	}
	if cs.standby != "" && cs.standbySID != "" {
		rt.quick[cs.standby].Close(cs.standbySID)
	}
	rt.mu.Lock()
	delete(rt.sessions, id)
	rt.mu.Unlock()
	cs.mu.Unlock()
	rt.closes.Add(1)
	server.WriteJSON(w, http.StatusOK, map[string]string{"closed": id})
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	out := make([]server.SessionState, 0)
	for _, cs := range rt.sessionList() {
		cs.mu.Lock()
		st := cs.last
		st.Session = cs.id
		cs.mu.Unlock()
		out = append(out, st)
	}
	server.WriteJSON(w, http.StatusOK, out)
}

func (rt *Router) handleReconcile(w http.ResponseWriter, r *http.Request) {
	closed := 0
	errs := 0
	for _, sh := range rt.shards {
		if !rt.health.usable(sh.ID) {
			continue
		}
		n, err := rt.reconcile(sh.ID)
		if err != nil {
			errs++
			rt.logf("reconcile: shard %s: %v", sh.ID, err)
			continue
		}
		closed += n
	}
	server.WriteJSON(w, http.StatusOK, map[string]int{"strays_closed": closed, "shard_errors": errs})
}

// StatsSnapshot assembles the router's counters and per-shard views.
func (rt *Router) StatsSnapshot() RouterStats {
	primaries := make(map[string]int)
	standbys := make(map[string]int)
	sessions := 0
	for _, cs := range rt.sessionList() {
		cs.mu.Lock()
		primaries[cs.primary]++
		if cs.standby != "" {
			standbys[cs.standby]++
		}
		cs.mu.Unlock()
		sessions++
	}
	out := RouterStats{
		Sessions:        sessions,
		Opens:           rt.opens.Load(),
		Closes:          rt.closes.Load(),
		Failovers:       rt.failovers.Load(),
		Handoffs:        rt.handoffs.Load(),
		Reopens:         rt.reopens.Load(),
		StandbyRebuilds: rt.standbyRebuilds.Load(),
		Hedges:          rt.hedges.Load(),
		HedgeWins:       rt.hedgeWins.Load(),
		HedgedMutations: rt.hedgedMutations.Load(),
		Restarts:        rt.restarts.Load(),
		DupOpens:        rt.dupOpens.Load(),
		DedupeHits:      rt.dedupe.Hits(),
		Panics:          rt.panics.Load(),
	}
	for _, sh := range rt.shards {
		state, fails, penalty := rt.health.snapshot(sh.ID)
		cst := rt.clients[sh.ID].Stats()
		rt.metricsMu.Lock()
		m := rt.perShard[sh.ID]
		ss := ShardStats{
			ID:               sh.ID,
			Addr:             sh.Addr,
			State:            state,
			ConsecutiveFails: fails,
			Breaker:          cst.Breaker,
			Weight:           sh.Weight,
			Penalty:          penalty,
			EffectiveWeight:  rt.health.effectiveWeight(sh.ID, sh.Weight),
			Requests:         m.requests,
			Errors:           m.errs,
			Sheds:            cst.Sheds,
			Retries:          cst.Retries,
			Primaries:        primaries[sh.ID],
			Standbys:         standbys[sh.ID],
			LatencyCount:     m.hist.Count(),
			P50Micros:        int64(m.hist.Quantile(0.5) / time.Microsecond),
			P90Micros:        int64(m.hist.Quantile(0.9) / time.Microsecond),
			P99Micros:        int64(m.hist.Quantile(0.99) / time.Microsecond),
			MaxMicros:        int64(m.hist.Max() / time.Microsecond),
		}
		rt.metricsMu.Unlock()
		out.Shards = append(out.Shards, ss)
	}
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, rt.StatsSnapshot())
}

// handleReport renders the per-shard latency histograms and health states
// as markdown — curl-able straight into a soak report.
func (rt *Router) handleReport(w http.ResponseWriter, r *http.Request) {
	st := rt.StatsSnapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "## knowrouter fleet report\n\n")
	fmt.Fprintf(&b, "sessions %d · opens %d · failovers %d (handoffs %d, reopens %d) · hedges %d (wins %d) · hedged mutations %d · strays reaped %d\n\n",
		st.Sessions, st.Opens, st.Failovers, st.Handoffs, st.Reopens, st.Hedges, st.HedgeWins, st.HedgedMutations, st.DupOpens)
	fmt.Fprintf(&b, "| shard | state | breaker | w_eff | requests | errors | sheds | primaries | standbys | p50 | p90 | p99 | max |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	micros := func(us int64) string { return (time.Duration(us) * time.Microsecond).String() }
	for _, sh := range st.Shards {
		fmt.Fprintf(&b, "| %s | %s | %s | %.2f | %d | %d | %d | %d | %d | %s | %s | %s | %s |\n",
			sh.ID, sh.State, sh.Breaker, sh.EffectiveWeight, sh.Requests, sh.Errors, sh.Sheds,
			sh.Primaries, sh.Standbys, micros(sh.P50Micros), micros(sh.P90Micros), micros(sh.P99Micros), micros(sh.MaxMicros))
	}
	w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String()))
}
