package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
)

// record is one client op as issued and answered. Latency is End-Start.
// The response is kept as a digest and the op itself as its script
// coordinates, so records stay small and the heap measured during the
// timed phase is the serving stack's, not the benchmark's bookkeeping.
type record struct {
	ID      int64
	Client  int
	Unit    int // script unit index; -1-i for warm session i
	Step    int // step index within the unit
	Kind    opKind
	Session string // logical session key
	Start   int64  // ns since the tracer epoch
	End     int64
	Err     error
	State   server.SessionState // open, announce; Session and System cleared
	Link    int                 // eval
	Evals   int                 // eval: verdicts served
	Digest  uint64              // eval: digest of every verdict
	Knows   uint64              // eval: bit i set iff verdict i holds at the marked world
}

func (r *record) latency() time.Duration { return time.Duration(r.End - r.Start) }

// recordArena hands out records from storage allocated before a timed
// phase, so the heap sampled during the phase does not grow with the
// number of ops the stack completes.
type recordArena struct{ free []record }

func (a *recordArena) next() *record {
	if len(a.free) == 0 {
		a.free = make([]record, 1024)
	}
	r := &a.free[0]
	a.free = a.free[1:]
	return r
}

// opsPerSecondCap is a generous ceiling on each workload's throughput on a
// two-CPU host, used only to size the record storage of a timed phase.
var opsPerSecondCap = map[string]float64{"ladder": 2500, "tower": 4000, "churn": 1200}

// benchClient is one closed-loop client: it issues its next op only after
// the previous one has answered.
type benchClient struct {
	idx   int
	c     *client.Client
	cur   atomic.Int64 // op in flight, for the client transport
	next  int          // next script unit index
	arena recordArena
}

// runner drives one booted stack with one workload.
type runner struct {
	t       *tracer
	st      *stack
	w       *workload
	seed    int64
	seeds   seedPlan
	clients []*benchClient
	// tower: logical keys and router session ids of the warm sessions
	warmKeys []string
	warmIDs  []string
}

func newRunner(t *tracer, st *stack, w *workload, seed int64, clients int) *runner {
	r := &runner{t: t, st: st, w: w, seed: seed, seeds: newSeedPlan(seed, w, clients)}
	for i := 0; i < clients; i++ {
		bc := &benchClient{idx: i}
		bc.c = client.New(client.Config{
			BaseURL:           st.routerURL,
			Seed:              seed<<4 + int64(i) + 1,
			DeterministicKeys: true,
			HTTPClient: &http.Client{Timeout: 30 * time.Second,
				Transport: clientTransport{t: t, base: http.DefaultTransport, cur: &bc.cur}},
		})
		r.clients = append(r.clients, bc)
	}
	return r
}

// do issues step si of unit u on session sid (a router session id; empty
// before an open) and returns its record and the session id to use next.
func (r *runner) do(bc *benchClient, u *unit, si int, logical, sid string, shared bool) (*record, string) {
	t := r.t
	s := &u.Steps[si]
	rec := bc.arena.next()
	*rec = record{ID: t.newID(), Client: bc.idx, Unit: u.Index, Step: si, Kind: s.Kind, Session: logical}
	bc.cur.Store(rec.ID)
	if !shared && t.on.Load() {
		t.sessOp.Store(logical, rec.ID)
	}
	rec.Start = t.now()
	switch s.Kind {
	case opOpen:
		rec.State, rec.Err = bc.c.Open(s.System, s.Seed)
		sid = rec.State.Session
	case opEval:
		var resp server.EvalResponse
		resp, rec.Err = bc.c.Eval(sid, server.EvalRequest{Formulas: s.Formulas, Worlds: s.Worlds})
		rec.Link, rec.Evals = resp.Link, len(resp.Verdicts)
		ds := make([]verdictDigest, len(resp.Verdicts))
		for i, v := range resp.Verdicts {
			ds[i] = digestVerdict(v)
			if ds[i].Marked == 1 && i < 64 {
				rec.Knows |= 1 << i
			}
		}
		rec.Digest = digestBatch(ds)
	case opAnnounce:
		rec.State, rec.Err = bc.c.Announce(sid, s.Formula)
	case opClose:
		rec.Err = bc.c.Close(sid)
	}
	rec.End = t.now()
	rec.State.Session, rec.State.System = "", ""
	if t.on.Load() {
		t.add(span{ID: rec.ID, Op: rec.ID, Name: "client." + s.Kind.String(), Start: rec.Start, End: rec.End})
	}
	return rec, sid
}

// runUnit runs one script unit, stopping early at the deadline or after a
// failed op (the session's state is unknown past it).
func (r *runner) runUnit(bc *benchClient, u unit, deadline time.Time, out []*record) []*record {
	logical, sid, shared := "", "", u.Shared >= 0
	if shared {
		logical, sid = r.warmKeys[u.Shared], r.warmIDs[u.Shared]
	}
	for i := range u.Steps {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		if s := &u.Steps[i]; s.Kind == opOpen {
			logical = logicalKey(s.System, s.Seed)
		}
		var rec *record
		rec, sid = r.do(bc, &u, i, logical, sid, shared)
		out = append(out, rec)
		if rec.Err != nil {
			break
		}
	}
	return out
}

// openWarm opens the workload's shared sessions through client 0.
func (r *runner) openWarm() ([]*record, error) {
	var recs []*record
	for i, ws := range r.w.Warm {
		u := warmUnit(r.w, r.seeds, i)
		key := logicalKey(ws.System, u.Steps[0].Seed)
		rec, sid := r.do(r.clients[0], &u, 0, key, "", false)
		if rec.Err != nil {
			return nil, fmt.Errorf("open warm session %s: %w", ws.System, rec.Err)
		}
		if rec.State.Agents != ws.Agents {
			return nil, fmt.Errorf("warm session %s has %d agents, script assumes %d", ws.System, rec.State.Agents, ws.Agents)
		}
		r.warmKeys = append(r.warmKeys, key)
		r.warmIDs = append(r.warmIDs, sid)
		recs = append(recs, rec)
	}
	return recs, nil
}

// warmupUnits is how many script units each client runs during set-up.
func warmupUnits(w *workload) int {
	switch w.Name {
	case "tower":
		return 80
	case "churn":
		return 10
	}
	return 4
}

// warmupSeed draws the warm-up scripts, so every run's set-up does the
// same work whatever its --seed.
const warmupSeed = 1

// warmUp runs every client's warm-up units concurrently; any failure fails
// set-up.
func (r *runner) warmUp() error {
	seeds := newSeedPlan(warmupSeed, r.w, len(r.clients))
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for _, bc := range r.clients {
		wg.Add(1)
		go func(bc *benchClient) {
			defer wg.Done()
			for j := 0; j < warmupUnits(r.w); j++ {
				u := r.w.script(warmupSeed, seeds, bc.idx, warmupBase+j)
				for _, rec := range r.runUnit(bc, u, time.Time{}, nil) {
					if rec.Err != nil {
						errs[bc.idx] = fmt.Errorf("warm-up %s: %w", rec.Kind, rec.Err)
						return
					}
				}
			}
		}(bc)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// phaseResult is one timed phase: every op record in per-client order,
// the wall time from start to the last answer, and the heap peak.
type phaseResult struct {
	recs    []*record
	elapsed time.Duration
	heapMB  float64
}

// phase runs the closed loop for d with tracing on or off.
func (r *runner) phase(d time.Duration, traced bool) phaseResult {
	perClient := make([][]*record, len(r.clients))
	n := int(opsPerSecondCap[r.w.Name]*d.Seconds()) / len(r.clients)
	for i, bc := range r.clients {
		bc.arena.free = make([]record, n)
		perClient[i] = make([]*record, 0, n)
	}
	r.t.on.Store(traced)
	stopHeap := make(chan struct{})
	heapPeak := make(chan float64)
	go sampleHeap(stopHeap, heapPeak)

	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, bc := range r.clients {
		wg.Add(1)
		go func(bc *benchClient) {
			defer wg.Done()
			recs := perClient[bc.idx]
			for time.Now().Before(deadline) {
				u := r.w.script(r.seed, r.seeds, bc.idx, bc.next)
				bc.next++
				recs = r.runUnit(bc, u, deadline, recs)
			}
			perClient[bc.idx] = recs
		}(bc)
	}
	wg.Wait()
	elapsed := time.Since(start)
	r.t.on.Store(false)
	close(stopHeap)
	res := phaseResult{elapsed: elapsed, heapMB: <-heapPeak}
	for _, recs := range perClient {
		res.recs = append(res.recs, recs...)
	}
	return res
}

// sampleHeap reports the peak of live-plus-unswept heap object bytes,
// sampled every 5ms until stop closes.
func sampleHeap(stop <-chan struct{}, peak chan<- float64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	var most uint64
	for {
		metrics.Read(sample)
		most = max(most, sample[0].Value.Uint64())
		select {
		case <-stop:
			peak <- float64(most) / (1 << 20)
			return
		case <-tick.C:
		}
	}
}

// fleetStats is the counter snapshot of every process on the path.
type fleetStats struct {
	router  cluster.RouterStats
	shards  []server.Stats
	retries int
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stats reads /v1/stats from the router and every shard, plus the
// benchmark clients' retry counts.
func (r *runner) stats() (fleetStats, error) {
	var fs fleetStats
	if err := getJSON(r.st.routerURL+"/v1/stats", &fs.router); err != nil {
		return fs, err
	}
	for _, sh := range fs.router.Shards {
		var s server.Stats
		if err := getJSON(sh.Addr+"/v1/stats", &s); err != nil {
			return fs, err
		}
		fs.shards = append(fs.shards, s)
	}
	for _, bc := range r.clients {
		fs.retries += bc.c.Stats().Retries
	}
	return fs, nil
}

// checkFleet asserts the counters a clean run must leave at zero.
func checkFleet(fs fleetStats) []error {
	var errs []error
	if fs.router.Failovers != 0 {
		errs = append(errs, fmt.Errorf("router failovers = %d, want 0", fs.router.Failovers))
	}
	if fs.router.HedgedMutations != 0 {
		errs = append(errs, fmt.Errorf("router hedged_mutations = %d, want 0", fs.router.HedgedMutations))
	}
	if fs.router.Panics != 0 {
		errs = append(errs, fmt.Errorf("router panics = %d, want 0", fs.router.Panics))
	}
	for i, s := range fs.shards {
		if s.Panics != 0 {
			errs = append(errs, fmt.Errorf("shard %d panics = %d, want 0", i+1, s.Panics))
		}
	}
	return errs
}
