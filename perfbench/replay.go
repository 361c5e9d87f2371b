package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/muddy"
	"repro/internal/protocol"
	"repro/internal/runs"
	"repro/internal/scenario"
	"repro/internal/server"
)

// The direct replay re-executes every recorded op on the kernel, outside
// the served path and outside every timed interval: the public system
// constructors for opens, logic.Parse plus EvalBatchCtx for evals, and
// logic.Parse plus Quotiented.Eval and Restrict for announces. Its results
// are the reference each served response is checked against, and in a
// traced run its timings are the kernel, parse and construction spans.

// refSession is the reference copy of one session's chain.
type refSession struct {
	agents int
	view   *kripke.Quotiented
	pm     *runs.PointModel
	marked int
	link   int
}

// Fixed-system parameters, as internal/server/systems.go loads them.
const (
	attackBudget  = 4
	attackHorizon = runs.Time(10)
	r2d2Sends     = 6
	r2d2Horizon   = runs.Time(9)
)

// loadRef builds a system spec the way knowd does, from the same public
// constructors.
func loadRef(spec string, seed int64) (*refSession, error) {
	switch {
	case strings.HasPrefix(spec, "muddy:"):
		n, err := strconv.Atoi(spec[len("muddy:"):])
		if err != nil {
			return nil, fmt.Errorf("bad muddy spec %q", spec)
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		p, err := muddy.New(n, all)
		if err != nil {
			return nil, err
		}
		marked, err := p.ActualWorld()
		if err != nil {
			return nil, err
		}
		return &refSession{agents: n, view: p.Model().QuotientForEval(1), marked: marked}, nil
	case spec == "attack":
		s, err := attack.Build(attackBudget, attackHorizon)
		if err != nil {
			return nil, err
		}
		never := func(protocol.LocalView) bool { return false }
		pm := s.Sys.Model(runs.CompleteHistoryView, s.DeliveryInterp(never, never))
		marked, err := pm.WorldOf(s.BestChainRun(), s.Sys.Horizon)
		if err != nil {
			return nil, err
		}
		return &refSession{agents: s.Sys.N, view: pm.EpistemicQuotient(1), pm: pm, marked: marked}, nil
	case spec == "r2d2":
		sys := core.R2D2Chain(r2d2Sends, r2d2Horizon)
		pm := sys.Model(runs.CompleteHistoryView, runs.Interpretation{
			"sent": runs.StablyTrue(runs.SentBy("m")),
		})
		marked, err := pm.WorldOf("s0", sys.Horizon)
		if err != nil {
			return nil, err
		}
		return &refSession{agents: sys.N, view: pm.EpistemicQuotient(1), pm: pm, marked: marked}, nil
	case strings.HasPrefix(spec, "scenario:"):
		p := scenario.Params{Seed: seed}
		rg, err := scenario.RegimeByKey(p, spec[len("scenario:"):])
		if err != nil {
			return nil, err
		}
		b, err := scenario.Build(p, rg)
		if err != nil {
			return nil, err
		}
		return &refSession{agents: b.Sys.N, view: b.PM.EpistemicQuotient(1), pm: b.PM, marked: b.PM.World(b.WitnessIdx, b.TStar)}, nil
	}
	return nil, fmt.Errorf("unknown system spec %q", spec)
}

func (rs *refSession) state() server.SessionState {
	return server.SessionState{
		Agents:   rs.agents,
		Link:     rs.link,
		Worlds:   rs.view.NumWorlds(),
		Quotient: rs.view.QuotientWorlds(),
		Marked:   rs.marked,
	}
}

// verdictDigest is the part of a served verdict the check compares; world
// lists are kept as length plus hash, so recording them stays small.
type verdictDigest struct {
	Count   int
	Marked  int8 // -1: no marked world; 0 false; 1 true
	NWorlds int
	Hash    uint64
}

func digestWorlds(ws []int) (int, uint64) {
	if len(ws) == 0 {
		return 0, 0
	}
	h := fnv.New64a()
	var b [8]byte
	for _, w := range ws {
		for i := range b {
			b[i] = byte(uint64(w) >> (8 * i))
		}
		h.Write(b[:])
	}
	return len(ws), h.Sum64()
}

func digestVerdict(v server.Verdict) verdictDigest {
	d := verdictDigest{Count: v.Count, Marked: -1}
	if v.Marked != nil {
		d.Marked = 0
		if *v.Marked {
			d.Marked = 1
		}
	}
	d.NWorlds, d.Hash = digestWorlds(v.Worlds)
	return d
}

// digestBatch folds a batch's verdict digests into one value.
func digestBatch(ds []verdictDigest) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, d := range ds {
		put(uint64(d.Count))
		put(uint64(d.Marked))
		put(uint64(d.NWorlds))
		put(d.Hash)
	}
	return h.Sum64()
}

func digestSet(set *bitset.Set, marked int, worlds bool) verdictDigest {
	d := verdictDigest{Count: set.Count(), Marked: -1}
	if marked >= 0 {
		d.Marked = 0
		if set.Contains(marked) {
			d.Marked = 1
		}
	}
	if worlds {
		d.NWorlds, d.Hash = digestWorlds(set.Elements())
	}
	return d
}

// replayTimes is the kernel, parse and construction time the replay spent
// on one op.
type replayTimes struct {
	start                                          int64 // ns since the tracer epoch
	load, parse, evalBatch, announceEval, restrict time.Duration
	formulas, quotientWorlds                       int
}

func (r replayTimes) total() time.Duration {
	return r.load + r.parse + r.evalBatch + r.announceEval + r.restrict
}

// evalBatch evaluates fs as knowd's session does: on the point model at
// link 0 of a runs-based system, so temporal operators apply, and on the
// chain view otherwise. It also returns the world count evaluation ran on.
func (rs *refSession) evalBatch(fs []logic.Formula, workers int) ([]*bitset.Set, int, error) {
	if rs.link == 0 && rs.pm != nil {
		sets, err := rs.pm.EvalBatchCtx(context.Background(), fs, kripke.BatchWorkers(workers))
		return sets, rs.pm.NumWorlds(), err
	}
	sets, err := rs.view.EvalBatchCtx(context.Background(), fs, kripke.BatchWorkers(workers))
	return sets, rs.view.QuotientWorlds(), err
}

// announce returns the session after publicly announcing f, as knowd's
// session does: restrict the view to f's denotation and track the marked
// world by rank. rs itself is unchanged.
func (rs *refSession) announce(f logic.Formula, rt *replayTimes) (*refSession, error) {
	t0 := time.Now()
	keep, err := rs.view.Eval(f)
	rt.announceEval = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if keep.IsEmpty() {
		return nil, fmt.Errorf("announcement denotation is empty")
	}
	next := *rs
	if next.marked >= 0 {
		if keep.Contains(next.marked) {
			next.marked = keep.Rank(next.marked)
		} else {
			next.marked = -1
		}
	}
	t0 = time.Now()
	next.view = rs.view.Restrict(keep, 1)
	rt.restrict = time.Since(t0)
	next.link++
	return &next, nil
}

func parseAll(srcs []string, rt *replayTimes) ([]logic.Formula, error) {
	t0 := time.Now()
	defer func() { rt.parse = time.Since(t0) }()
	fs := make([]logic.Formula, len(srcs))
	for i, src := range srcs {
		f, err := logic.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("formula %d: %w", i, err)
		}
		fs[i] = f
	}
	rt.formulas = len(fs)
	return fs, nil
}

func checkState(what string, got, want server.SessionState) error {
	if got != want {
		return fmt.Errorf("%s: served %+v, replay %+v", what, got, want)
	}
	return nil
}

// modelKey names the model an open builds: knowd ignores the seed of
// every system but the scenario regimes.
func modelKey(system string, seed int64) string {
	if strings.HasPrefix(system, "scenario:") {
		return logicalKey(system, seed)
	}
	return system
}

// replayer replays recorded ops per session. Timed, it re-executes every
// op, and its timings are the kernel, parse and construction spans of a
// traced run. Memoized, it only verifies: sessions whose chains reach the
// same model (same system, same announcements) share one reference, and
// each formula is evaluated once per model.
type replayer struct {
	sc       *scriptCache
	t        *tracer
	workers  int
	memo     bool
	sessions map[string]chainRef // logical session key -> current link
	models   map[string]*refSession
	verdicts map[string]verdictDigest
}

// chainRef is a session's current reference model and the key naming it.
type chainRef struct {
	ref *refSession
	key string
}

func newReplayer(sc *scriptCache, t *tracer, memo bool) *replayer {
	return &replayer{sc: sc, t: t, workers: runtime.GOMAXPROCS(0), memo: memo,
		sessions: map[string]chainRef{}, models: map[string]*refSession{}, verdicts: map[string]verdictDigest{}}
}

// op replays one recorded op, checks the served response against it and
// returns the time each layer took.
func (rp *replayer) op(r *record) (replayTimes, error) {
	rt := replayTimes{start: rp.t.now()}
	s := rp.sc.step(r.Client, r.Unit, r.Step)
	cur, ok := rp.sessions[r.Session]
	if !ok && s.Kind != opOpen {
		return rt, fmt.Errorf("%s on a session with no recorded open", s.Kind)
	}
	switch s.Kind {
	case opOpen:
		key := modelKey(s.System, s.Seed)
		ref := rp.models[key]
		if ref == nil {
			t0 := time.Now()
			var err error
			ref, err = loadRef(s.System, s.Seed)
			rt.load = time.Since(t0)
			if err != nil {
				return rt, err
			}
			if rp.memo {
				rp.models[key] = ref
			}
		}
		rp.sessions[r.Session] = chainRef{ref, key}
		return rt, checkState("open "+s.System, r.State, ref.state())
	case opClose:
		delete(rp.sessions, r.Session)
		return rt, nil
	case opAnnounce:
		key := cur.key + "|" + s.Formula
		next := rp.models[key]
		if next == nil {
			fs, err := parseAll([]string{s.Formula}, &rt)
			if err != nil {
				return rt, err
			}
			if next, err = cur.ref.announce(fs[0], &rt); err != nil {
				return rt, err
			}
			rt.quotientWorlds = next.view.QuotientWorlds()
			if rp.memo {
				rp.models[key] = next
			}
		}
		rp.sessions[r.Session] = chainRef{next, key}
		return rt, checkState("announce", r.State, next.state())
	}
	ds, err := rp.eval(cur, s, &rt)
	if err != nil {
		return rt, err
	}
	if r.Link != cur.ref.link || r.Evals != len(ds) {
		return rt, fmt.Errorf("eval: served %d verdicts at link %d, replay %d at link %d", r.Evals, r.Link, len(ds), cur.ref.link)
	}
	if r.Digest != digestBatch(ds) {
		return rt, fmt.Errorf("eval at link %d: served verdicts differ from the replay's %+v for %q", cur.ref.link, ds, s.Formulas)
	}
	return rt, nil
}

// eval computes the reference verdict digests of an eval step.
func (rp *replayer) eval(cur chainRef, s *step, rt *replayTimes) ([]verdictDigest, error) {
	ds := make([]verdictDigest, len(s.Formulas))
	var missing []int
	var srcs []string
	for i, src := range s.Formulas {
		d, ok := rp.verdicts[fmt.Sprintf("%s\x00%t\x00%s", cur.key, s.Worlds, src)]
		if rp.memo && ok {
			ds[i] = d
			continue
		}
		missing = append(missing, i)
		srcs = append(srcs, src)
	}
	if len(missing) == 0 {
		return ds, nil
	}
	fs, err := parseAll(srcs, rt)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	sets, qw, err := cur.ref.evalBatch(fs, rp.workers)
	rt.evalBatch, rt.quotientWorlds = time.Since(t0), qw
	if err != nil {
		return nil, err
	}
	for j, i := range missing {
		ds[i] = digestSet(sets[j], cur.ref.marked, s.Worlds)
		if rp.memo {
			rp.verdicts[fmt.Sprintf("%s\x00%t\x00%s", cur.key, s.Worlds, s.Formulas[i])] = ds[i]
		}
	}
	return ds, nil
}

// replay replays recs in order and returns the per-op replay times
// (indexed like recs) and one error per mismatched op. Ops that failed on
// the served path are not replayed.
func (rp *replayer) replay(recs []*record) ([]replayTimes, []error) {
	times := make([]replayTimes, len(recs))
	var errs []error
	for i, r := range recs {
		if r.Err != nil {
			continue
		}
		rt, err := rp.op(r)
		times[i] = rt
		if err != nil {
			errs = append(errs, fmt.Errorf("op %d (%s) on %s: %w", r.ID, r.Kind, r.Session, err))
		}
	}
	return times, errs
}
