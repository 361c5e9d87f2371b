// Package server implements knowd, the knowledge-serving daemon: an
// HTTP/JSON front end over the repository's model-checking stack. Clients
// open sessions against experiment systems (muddy-n, the coordinated
// attack, R2-D2, the scenario fault regimes), evaluate formula batches on
// the session's current model, and drive public-announcement chains whose
// warm incremental state (quotient block maps, seeded re-refinement) lives
// server-side between requests.
//
// The robustness surface is deliberately explicit, because the daemon is
// chaos-tested by the repository's own fault engine:
//
//   - admission control: a bounded compute-slot semaphore sheds overload
//     with 429 + Retry-After instead of queueing without bound;
//   - idempotency: requests carrying an Idempotency-Key execute once and
//     replay stored bytes to duplicates (single flight), so a retried
//     announce never advances a chain twice and a retried eval never
//     recomputes;
//   - per-session serialization: chain links cannot interleave;
//   - panic recovery: a poisoned request becomes a 500, the daemon lives;
//   - graceful drain: Shutdown stops intake, finishes in-flight work and
//     persists session chains (with their quotient block maps) to disk.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// Config carries the daemon's knobs; zero values mean defaults.
type Config struct {
	// Seed parameterizes scenario fault sampling for sessions opened
	// without an explicit seed. Default 1.
	Seed int64
	// Queue is the number of concurrent compute slots before load shedding
	// kicks in. Default 64.
	Queue int
	// DedupeWindow is how many idempotency keys the server remembers.
	// Default 256.
	DedupeWindow int
	// SessionTTL evicts sessions idle longer than this. Default 15m.
	SessionTTL time.Duration
	// StateDir, when non-empty, is where Shutdown persists session state
	// (sessions.json) and LoadSessions restores it from.
	StateDir string
	// WriteThrough, with StateDir set, persists sessions.json after every
	// successful mutating request instead of only on drain, so a session
	// chain survives a crash (SIGKILL) that never reaches Shutdown. The
	// window of loss is exactly the in-flight request, which the announce
	// link precondition makes safe to retry.
	WriteThrough bool
	// BootID, when non-empty, names this process incarnation. It is
	// advertised on /healthz as the Knowd-Boot-Id header and woven into
	// session ids ("s<boot>-<n>"), so an id minted by an earlier
	// incarnation that died on the same address can never alias a fresh
	// one. Routers key both crash detection and the safety of their
	// session mappings off it; in-process tests leave it empty and keep
	// the bare "s<n>" ids.
	BootID string
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.DedupeWindow <= 0 {
		c.DedupeWindow = 256
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 15 * time.Minute
	}
	return c
}

// Wire types, shared with internal/client.

// OpenRequest opens a session. Seed 0 inherits the server's seed.
type OpenRequest struct {
	System string `json:"system"`
	Seed   int64  `json:"seed,omitempty"`
}

// SessionState describes a session's current chain link.
type SessionState struct {
	Session  string `json:"session"`
	System   string `json:"system"`
	Agents   int    `json:"agents"`
	Link     int    `json:"link"`     // announcements applied so far
	Worlds   int    `json:"worlds"`   // worlds of the current (restricted) model
	Quotient int    `json:"quotient"` // worlds evaluation actually runs on
	Marked   int    `json:"marked"`   // distinguished world, -1 if eliminated
}

// EvalRequest evaluates a formula batch on a session's current model.
// knowd evaluates every batch serially, on one evaluator whose memo spans
// the whole batch: its concurrency comes from concurrent requests. Workers
// is accepted so that older clients' requests still decode, and ignored.
// Worlds asks for the full denotation world sets.
type EvalRequest struct {
	Formulas []string `json:"formulas"`
	Workers  int      `json:"workers,omitempty"`
	Worlds   bool     `json:"worlds,omitempty"`
}

// Verdict is one formula's result. Marked is nil when the session has no
// surviving marked world to judge at. Worlds, filled when the request asks
// for them, travels as a bitmap string (wire.go).
type Verdict struct {
	Formula string `json:"formula"`
	Count   int    `json:"count"`
	Marked  *bool  `json:"marked"`
	Worlds  Worlds `json:"worlds,omitempty"`
}

// EvalResponse carries the batch's verdicts; Link identifies the chain
// link they were computed at. knowd writes it with AppendEvalResponse
// (wire.go), and its first field must stay Session: ResessionEval relies
// on the body starting with it.
type EvalResponse struct {
	Session  string    `json:"session"`
	Link     int       `json:"link"`
	Verdicts []Verdict `json:"verdicts"`
}

// AnnounceRequest publicly announces a formula on a session. Link, when
// non-nil, is a chain-position precondition that makes the announce
// exactly-once across crash-restarts, where the in-memory dedupe window
// cannot help: at link == len(chain) the announcement applies normally; at
// link == len(chain)-1 with the identical formula the request is a retry
// of an already-applied announce (the response was lost) and replays the
// current state without advancing the chain; anything else is a 409.
type AnnounceRequest struct {
	Formula string `json:"formula"`
	Link    *int   `json:"link,omitempty"`
}

// Stats is the daemon's counter snapshot.
type Stats struct {
	Sessions   int   `json:"sessions"`
	Opened     int64 `json:"opened"`
	Closed     int64 `json:"closed"`
	Evicted    int64 `json:"evicted"`
	Restored   int64 `json:"restored"`
	Evals      int64 `json:"evals"`
	Announces  int64 `json:"announces"`
	Replays    int64 `json:"announce_replays"`
	DedupeHits int64 `json:"dedupe_hits"`
	Shed       int64 `json:"shed"`
	Panics     int64 `json:"panics"`
	// MemoHits and MemoMisses count the closed-subformula lookups of eval
	// batches against the sessions' per-view denotation memos.
	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`
}

type errorBody struct {
	Error string `json:"error"`
}

// maxBatch bounds one eval request's formula count.
const maxBatch = 1024

// Server is the knowd daemon state. Create with New; serve via Serve or
// mount Handler on a test server.
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	http *http.Server
	now  func() time.Time // injectable for eviction tests
	// tick is the janitor's tick source; the default wraps time.NewTicker.
	// Tests replace it (together with now) to drive TTL eviction from a
	// virtual clock with zero wall-clock sleeps — the returned stop func is
	// called when the janitor exits.
	tick func(d time.Duration) (<-chan time.Time, func())

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int64

	dedupe   *Deduper
	sem      chan struct{}
	draining atomic.Bool

	// persistMu serializes write-through snapshots so a slow writer can
	// never clobber sessions.json with an older snapshot than a fast one.
	persistMu sync.Mutex

	janitorOnce sync.Once
	janitorStop chan struct{}

	opened, closed, evicted, restored atomic.Int64
	evals, announces, replays         atomic.Int64
	shed, panics                      atomic.Int64
	memoHits, memoMisses              atomic.Int64
}

// New builds a daemon from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		now: time.Now,
		tick: func(d time.Duration) (<-chan time.Time, func()) {
			t := time.NewTicker(d)
			return t.C, t.Stop
		},
		sessions:    make(map[string]*session),
		sem:         make(chan struct{}, cfg.Queue),
		janitorStop: make(chan struct{}),
	}
	s.dedupe = NewDeduper(cfg.DedupeWindow, s.logf, func() { s.panics.Add(1) })
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.withRecover(s.handleHealthz))
	mux.HandleFunc("GET /v1/systems", s.withRecover(s.handleSystems))
	mux.HandleFunc("GET /v1/stats", s.withRecover(s.handleStats))
	mux.HandleFunc("GET /v1/sessions", s.withRecover(s.handleList))
	mux.HandleFunc("GET /v1/sessions/{id}", s.withRecover(s.handleGet))
	mux.HandleFunc("POST /v1/sessions", s.compute(s.handleOpen))
	mux.HandleFunc("POST /v1/sessions/{id}/eval", s.compute(s.handleEval))
	mux.HandleFunc("POST /v1/sessions/{id}/announce", s.compute(s.handleAnnounce))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.withRecover(s.handleClose))
	s.mux = mux
	s.http = &http.Server{Handler: mux}
	return s
}

// Handler exposes the daemon's routes (for tests and custom servers).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. The idle-session janitor
// runs for the lifetime of the daemon.
func (s *Server) Serve(l net.Listener) error {
	s.startJanitor()
	err := s.http.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the daemon: new compute is refused with 503, in-flight
// requests finish (bounded by ctx), and — when StateDir is set — every
// surviving session chain is persisted for the next process to restore.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.http.Shutdown(ctx)
	if s.cfg.StateDir != "" {
		if _, serr := s.SaveSessions(); serr != nil && err == nil {
			err = serr
		}
	}
	s.janitorOnce.Do(func() {}) // mark started so stop is safe either way
	select {
	case <-s.janitorStop:
	default:
		close(s.janitorStop)
	}
	return err
}

func (s *Server) startJanitor() {
	s.janitorOnce.Do(func() {
		go func() {
			c, stop := s.tick(s.cfg.SessionTTL / 4)
			defer stop()
			for {
				select {
				case <-s.janitorStop:
					return
				case <-c:
					s.evictIdle(s.now())
				}
			}
		}()
	})
}

// evictIdle drops sessions idle longer than SessionTTL.
func (s *Server) evictIdle(now time.Time) {
	s.mu.Lock()
	dropped := 0
	for id, ss := range s.sessions {
		if ss.idleSince(now) > s.cfg.SessionTTL {
			delete(s.sessions, id)
			s.evicted.Add(1)
			dropped++
			s.logf("evicted idle session %s (%s)", id, ss.ld.spec)
		}
	}
	s.mu.Unlock()
	if dropped > 0 {
		// Evictions are mutations too: without a fresh snapshot a restart
		// would resurrect sessions the TTL already reclaimed.
		s.persistWriteThrough()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Middleware.

// compute wraps the expensive mutating endpoints: panic recovery outside,
// then idempotency dedupe (a replayed duplicate never needs a slot), then
// admission control, then the handler.
func (s *Server) compute(h http.HandlerFunc) http.HandlerFunc {
	return s.withRecover(s.withDedupe(s.withAdmit(h)))
}

func (s *Server) withRecover(h http.HandlerFunc) http.HandlerFunc {
	return Recover(h, s.logf, func() { s.panics.Add(1) })
}

// Recover wraps h with panic recovery: a panicking request is counted
// through onPanic, logged through logf and answered 500 with an error
// body. knowd and knowrouter share it as their outermost middleware.
func Recover(h http.HandlerFunc, logf func(format string, args ...any), onPanic func()) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				onPanic()
				logf("panic serving %s %s: %v", r.Method, r.URL.Path, p)
				WriteError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
		}()
		h(w, r)
	}
}

// withAdmit implements load shedding: compute runs only while a slot is
// free; otherwise the request is refused immediately with Retry-After so
// a well-behaved client backs off instead of piling onto the queue.
func (s *Server) withAdmit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			h(w, r)
		default:
			s.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, "over capacity")
		}
	}
}

// withDedupe gives Idempotency-Key semantics to the wrapped handler via
// the server's Deduper (see dedupe.go for the full contract).
func (s *Server) withDedupe(h http.HandlerFunc) http.HandlerFunc {
	return s.dedupe.Wrap(h)
}

// WriteJSON answers with status and v encoded as a JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers with status and the {"error": msg} body every knowd
// and knowrouter error response carries.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorBody{Error: msg})
}

// Handlers.

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.cfg.BootID != "" {
		w.Header().Set("Knowd-Boot-Id", s.cfg.BootID)
	}
	if s.draining.Load() {
		// 503, not 200-with-a-sad-body: a health checker keys off the status
		// code, and a draining daemon must stop receiving routed traffic
		// before its listener actually closes.
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleSystems(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, Systems(s.cfg.Seed))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.StatsSnapshot())
}

// StatsSnapshot returns the current counter values.
func (s *Server) StatsSnapshot() Stats {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	return Stats{
		Sessions:   n,
		Opened:     s.opened.Load(),
		Closed:     s.closed.Load(),
		Evicted:    s.evicted.Load(),
		Restored:   s.restored.Load(),
		Evals:      s.evals.Load(),
		Announces:  s.announces.Load(),
		Replays:    s.replays.Load(),
		DedupeHits: s.dedupe.Hits(),
		Shed:       s.shed.Load(),
		Panics:     s.panics.Load(),
		MemoHits:   s.memoHits.Load(),
		MemoMisses: s.memoMisses.Load(),
	}
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req OpenRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.Seed
	}
	ld, err := loadSystem(req.System, seed)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ss := &session{seed: seed, ld: ld}
	ss.touch(s.now())
	s.mu.Lock()
	s.nextID++
	if s.cfg.BootID != "" {
		ss.id = "s" + s.cfg.BootID + "-" + strconv.FormatInt(s.nextID, 10)
	} else {
		ss.id = "s" + strconv.FormatInt(s.nextID, 10)
	}
	s.sessions[ss.id] = ss
	s.mu.Unlock()
	s.opened.Add(1)
	s.persistWriteThrough()
	WriteJSON(w, http.StatusCreated, s.stateOf(ss))
}

// persistWriteThrough snapshots session state to disk after a mutation
// when write-through persistence is on. Failures are logged, not fatal:
// the daemon keeps serving from memory and the next mutation retries.
func (s *Server) persistWriteThrough() {
	if !s.cfg.WriteThrough || s.cfg.StateDir == "" {
		return
	}
	if _, err := s.SaveSessions(); err != nil {
		s.logf("write-through persistence failed: %v", err)
	}
}

// stateOf snapshots a session's chain state; callers hold ss.mu or have
// exclusive access.
func (s *Server) stateOf(ss *session) SessionState {
	return SessionState{
		Session:  ss.id,
		System:   ss.ld.spec,
		Agents:   ss.ld.agents,
		Link:     len(ss.announced),
		Worlds:   ss.ld.chain.NumWorlds(),
		Quotient: ss.ld.chain.QuotientWorlds(),
		Marked:   ss.ld.chain.Marked(),
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, compareSessionIDs)
	out := make([]SessionState, 0, len(ids))
	for _, id := range ids {
		ss := s.sessions[id]
		ss.mu.Lock()
		out = append(out, s.stateOf(ss))
		ss.mu.Unlock()
	}
	s.mu.Unlock()
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) session(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// handleGet returns one session's current chain state — the read-only
// counterpart of the session list, cheap enough for a router to hedge to a
// replica. It deliberately does not touch the session: a health probe or a
// hedged read must not keep an otherwise idle session alive.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	ss := s.session(r.PathValue("id"))
	if ss == nil {
		WriteError(w, http.StatusNotFound, "no such session")
		return
	}
	ss.mu.Lock()
	st := s.stateOf(ss)
	ss.mu.Unlock()
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	ss := s.session(r.PathValue("id"))
	if ss == nil {
		WriteError(w, http.StatusNotFound, "no such session")
		return
	}
	var req EvalRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if len(req.Formulas) == 0 {
		WriteError(w, http.StatusBadRequest, "empty formula batch")
		return
	}
	if len(req.Formulas) > maxBatch {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d formulas exceeds the %d cap", len(req.Formulas), maxBatch))
		return
	}
	fs := make([]logic.Formula, len(req.Formulas))
	for i, src := range req.Formulas {
		f, err := logic.Parse(src)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("formula %d: %v", i, err))
			return
		}
		fs[i] = f
	}

	ss.mu.Lock()
	ss.touch(s.now())
	sets, memo, err := ss.evalBatch(r.Context(), fs)
	// The sets are this request's own: the verdicts are encoded after the
	// session is released.
	link, marked := len(ss.announced), ss.ld.chain.Marked()
	ss.mu.Unlock()
	s.memoHits.Add(memo.Hits)
	s.memoMisses.Add(memo.Misses)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nobody is listening
		}
		WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	resp := EvalResponse{
		Session:  ss.id,
		Link:     link,
		Verdicts: make([]Verdict, len(fs)),
	}
	for i, set := range sets {
		v := Verdict{Formula: req.Formulas[i], Count: set.Count()}
		if marked >= 0 {
			holds := set.Contains(marked)
			v.Marked = &holds
		}
		resp.Verdicts[i] = v
	}
	var worlds []*bitset.Set
	if req.Worlds {
		worlds = sets
	}
	body := appendEvalResponse(nil, resp, worlds)
	if len(body) > MaxResponseBytes-resessionHeadroom {
		WriteError(w, http.StatusUnprocessableEntity, fmt.Sprintf(
			"eval response of %d bytes exceeds the %d-byte cap: ask for fewer formulas or no world sets",
			len(body), MaxResponseBytes-resessionHeadroom))
		return
	}
	s.evals.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handleAnnounce(w http.ResponseWriter, r *http.Request) {
	ss := s.session(r.PathValue("id"))
	if ss == nil {
		WriteError(w, http.StatusNotFound, "no such session")
		return
	}
	var req AnnounceRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	f, err := logic.Parse(req.Formula)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ss.mu.Lock()
	ss.touch(s.now())
	if req.Link != nil {
		switch at := len(ss.announced); {
		case *req.Link == at:
			// Precondition holds: apply below.
		case *req.Link == at-1 && ss.announced[at-1] == req.Formula:
			// A retry of the announce that created the current link: the
			// original executed but its response was lost (severed wire,
			// daemon crash after persisting). Replay the state instead of
			// advancing the chain a second time.
			st := s.stateOf(ss)
			ss.mu.Unlock()
			s.replays.Add(1)
			WriteJSON(w, http.StatusOK, st)
			return
		default:
			ss.mu.Unlock()
			WriteError(w, http.StatusConflict,
				fmt.Sprintf("link precondition %d does not match chain at link %d", *req.Link, at))
			return
		}
	}
	if err := ss.announce(req.Formula, f); err != nil {
		ss.mu.Unlock()
		WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	st := s.stateOf(ss)
	ss.mu.Unlock()
	s.announces.Add(1)
	s.persistWriteThrough()
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		WriteError(w, http.StatusNotFound, "no such session")
		return
	}
	s.closed.Add(1)
	s.persistWriteThrough()
	WriteJSON(w, http.StatusOK, map[string]string{"closed": id})
}

// maxRequestBytes bounds every request body.
const maxRequestBytes = 1 << 20

// DecodeBody decodes a bounded JSON request body into v, rejecting unknown
// fields and reporting malformed input as 400. It returns false when the
// error response was already written.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// ReadBody reads a request body under DecodeBody's bound, for a relay that
// forwards it undecoded; an oversized body is the same 400 DecodeBody
// writes. It returns false when the error response was already written.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return nil, false
	}
	return body, true
}

// Session persistence: the drain path of the tentpole. Chains are stored
// as their announcement sources plus the expected model shape; restore
// replays the sources through the same incremental machinery and verifies
// the rebuilt chain matches world for world before trusting it.

type persistedSession struct {
	ID        string   `json:"id"`
	System    string   `json:"system"`
	Seed      int64    `json:"seed"`
	Announced []string `json:"announced"`
	Marked    int      `json:"marked"`
	Worlds    int      `json:"worlds"`
	Quotient  int      `json:"quotient"`
	Blocks    []int    `json:"blocks,omitempty"`
}

type stateFile struct {
	Sessions []persistedSession `json:"sessions"`
}

// SaveSessions writes every live session's chain record to
// StateDir/sessions.json and returns the path written. Concurrent calls
// are serialized, and each writes the state current at its own write time,
// so the file on disk is always the newest snapshot taken.
func (s *Server) SaveSessions() (string, error) {
	if s.cfg.StateDir == "" {
		return "", fmt.Errorf("server: no StateDir configured")
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	s.mu.Lock()
	var sf stateFile
	for _, ss := range s.sessions {
		ss.mu.Lock()
		sf.Sessions = append(sf.Sessions, persistedSession{
			ID:        ss.id,
			System:    ss.ld.spec,
			Seed:      ss.seed,
			Announced: slices.Clone(ss.announced),
			Marked:    ss.ld.chain.Marked(),
			Worlds:    ss.ld.chain.NumWorlds(),
			Quotient:  ss.ld.chain.QuotientWorlds(),
			Blocks:    slices.Clone(ss.ld.chain.View().Blocks()),
		})
		ss.mu.Unlock()
	}
	s.mu.Unlock()
	slices.SortFunc(sf.Sessions, func(a, b persistedSession) int { return compareSessionIDs(a.ID, b.ID) })
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(s.cfg.StateDir, "sessions.json")
	data, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	s.logf("persisted %d sessions to %s", len(sf.Sessions), path)
	return path, nil
}

// LoadSessions restores sessions persisted by a previous drain. Each
// chain is rebuilt by replaying its announcements; a chain whose rebuilt
// model shape (worlds, quotient size, block map, marked world) disagrees
// with the record is skipped rather than served wrong. Returns how many
// sessions were restored. A missing state file is not an error.
func (s *Server) LoadSessions() (int, error) {
	if s.cfg.StateDir == "" {
		return 0, fmt.Errorf("server: no StateDir configured")
	}
	path := filepath.Join(s.cfg.StateDir, "sessions.json")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var sf stateFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return 0, fmt.Errorf("server: corrupt state file %s: %w", path, err)
	}
	restored := 0
	maxID := int64(0)
	for _, ps := range sf.Sessions {
		if !validSessionID(ps.ID) {
			s.logf("skipping persisted session with malformed id %q", ps.ID)
			continue
		}
		ld, err := loadSystem(ps.System, ps.Seed)
		if err != nil {
			s.logf("skipping persisted session %s: %v", ps.ID, err)
			continue
		}
		ss := &session{id: ps.ID, seed: ps.Seed, ld: ld}
		ss.touch(s.now())
		if err := ss.replay(ps.Announced); err != nil {
			s.logf("skipping persisted session %s: %v", ps.ID, err)
			continue
		}
		if ss.ld.chain.Marked() != ps.Marked ||
			ss.ld.chain.NumWorlds() != ps.Worlds ||
			ss.ld.chain.QuotientWorlds() != ps.Quotient ||
			!slices.Equal(ss.ld.chain.View().Blocks(), ps.Blocks) {
			s.logf("skipping persisted session %s: replayed chain does not match its record", ps.ID)
			continue
		}
		s.mu.Lock()
		s.sessions[ps.ID] = ss
		s.mu.Unlock()
		maxID = max(maxID, sessionSeq(ps.ID))
		restored++
	}
	s.mu.Lock()
	if maxID > s.nextID {
		s.nextID = maxID
	}
	s.mu.Unlock()
	s.restored.Add(int64(restored))
	if restored > 0 {
		s.logf("restored %d sessions from %s", restored, path)
	}
	return restored, nil
}

// sessionSeq is the sequence number of a server-assigned session id: the
// <n> of "s<n>" or of the boot-fenced "s<boot>-<n>".
func sessionSeq(id string) int64 {
	body := strings.TrimPrefix(id, "s")
	n, _ := strconv.ParseInt(body[strings.IndexByte(body, '-')+1:], 10, 64)
	return n
}

// compareSessionIDs orders session ids by sequence number, then by id, so
// the session list and the state file come out in open order.
func compareSessionIDs(a, b string) int {
	return cmp.Or(cmp.Compare(sessionSeq(a), sessionSeq(b)), strings.Compare(a, b))
}

// validSessionID reports whether id has the server-assigned "s<digits>"
// shape. Restore refuses anything else: every ID consumer (the session
// list sort, the next-ID bump) reads the sequence number through
// sessionSeq, and a hand-edited state file must not be able to panic the
// daemon.
func validSessionID(id string) bool {
	if len(id) < 2 || id[0] != 's' {
		return false
	}
	body := id[1:]
	// Exactly two shapes: bare "s<n>", or the boot-fenced "s<boot>-<n>"
	// form where <boot> is a base-36 incarnation stamp.
	if i := strings.IndexByte(body, '-'); i >= 0 {
		return isBase36(body[:i]) && isDigits(body[i+1:])
	}
	return isDigits(body)
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func isBase36(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'z') {
			return false
		}
	}
	return true
}
