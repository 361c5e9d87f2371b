// Package scenario sweeps the fault regimes of Halpern & Moses dynamically:
// for each communication/failure regime it simulates a seeded fault-injected
// run system of a broadcast protocol (internal/protocol's virtual-clock
// engine over an internal/faults plan), builds the point model, and
// model-checks which of the paper's knowledge variants — C, ε-common,
// eventual-common, timestamped-common — is attained at the witness run's
// action point. The sweep reproduces the paper's qualitative separations
// from injected faults alone:
//
//   - sync-fixed (reliable, fixed known delay, synchronized clocks) attains
//     full common knowledge: histories pin send times exactly.
//   - bounded (delivery within an uncertain bound, the R2–D2 regime of
//     Section 8) loses C — the backward regress through not-yet-delivered
//     points reaches runs where nothing was sent — but attains C^ε for ε
//     covering the knowledge-onset spread (Section 11).
//   - async (delivery guaranteed, delay unbounded: NG1′) stretches onsets
//     beyond any fixed ε, leaving only eventual common knowledge C^⋄.
//   - drift-within/drift-beyond: with timestamped action at clock time T,
//     clock drift within the slack between T and the last delivery keeps
//     C^T, drift beyond it puts some processor's T-point before its
//     delivery and loses C^T (Section 12).
//   - lossy (drops: NG1/NG2) and crash (processors down across delivery)
//     gate every variant — the idle configuration plays the paper's
//     "possibly nothing was sent" run, so a processor that never receives
//     never learns the fact, and the fixed points collapse.
//   - dup (bounded delay plus duplicated deliveries: an at-least-once
//     channel) attains exactly what bounded does — extra copies destroy
//     no information, so duplication is the one fault knowledge survives
//     for free.
//
// Every sweep is reproducible byte for byte from its seed: the fault plans
// derive order-independent splitmix64 streams, and generation and
// evaluation are serial.
package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/protocol"
	"repro/internal/runs"
	"repro/internal/temporal"
)

// SentProp is the ground fact swept for attainment: the broadcaster has
// initiated (a stable fact in the sense of Section 11).
const SentProp = "sent"

// Payload is the broadcast message payload.
const Payload = "m"

// DeliveredProp returns the ground-fact name for "at least d broadcast
// messages have been delivered", the announcement ladder of Ladder.
func DeliveredProp(d int) string { return "del" + strconv.Itoa(d) }

// Params configures a sweep. The zero value of every field selects a
// default.
type Params struct {
	Seed      int64
	Agents    int              // processors, including the broadcaster (default 4)
	Samples   int              // sampled runs per initial configuration (default 12)
	Eps       int              // ε of the C^ε column (default 2)
	T         int              // timestamp of the C^T column (default 3)
	Drift     int              // drift bound of the drift-beyond regime (default 3)
	Drop      float64          // loss probability of the lossy regime (default 0.4)
	CrashP    float64          // crash probability of the crash regime (default 0.5)
	DupP      float64          // duplication probability of the dup regime (default 0.4)
	Delay     faults.DelayDist // delay distribution of the bounded regime (default uniform:1-2)
	AsyncSpan int              // sampled-delay span of the async regime (default 8)
	Horizon   runs.Time        // observation horizon (default 14)
}

func (p Params) withDefaults() Params {
	if p.Agents == 0 {
		p.Agents = 4
	}
	if p.Samples == 0 {
		p.Samples = 12
	}
	if p.Eps == 0 {
		p.Eps = 2
	}
	if p.T == 0 {
		p.T = 3
	}
	if p.Drift == 0 {
		p.Drift = 3
	}
	if p.Drop == 0 {
		p.Drop = 0.4
	}
	if p.CrashP == 0 {
		p.CrashP = 0.5
	}
	if p.DupP == 0 {
		p.DupP = 0.4
	}
	if p.Delay == nil {
		p.Delay = faults.Uniform{Min: 1, MaxD: 2}
	}
	if p.AsyncSpan == 0 {
		p.AsyncSpan = 8
	}
	if p.Horizon == 0 {
		p.Horizon = 14
	}
	return p
}

// Regime is one row of the sweep: a named fault plan plus the broadcaster
// wake-time jitter that populates the run system with genuinely uncertain
// send times (without jitter the fact "sent" holds at every point and every
// variant trivializes).
type Regime struct {
	Key    string
	Desc   string
	Plan   *faults.Plan
	Jitter []runs.Time
}

// Regimes returns the eight swept regimes under the given parameters. Each
// regime's plan seed is derived from the sweep seed and the regime's index,
// so regimes draw independent fault streams from one CLI seed.
func Regimes(p Params) []Regime {
	p = p.withDefaults()
	// Delay regimes jitter the send time tick by tick: the C regress needs
	// runs whose send is later than the action point. Drift regimes space
	// the jitter wider than any drifted timestamp can wander, so the C^T
	// verdict isolates clock uncertainty rather than send-time ambiguity.
	stepJitter := []runs.Time{0, 1, 2, 3, 4}
	wideJitter := []runs.Time{0, 3, 6}
	mk := func(idx int, key, desc string, jit []runs.Time, plan faults.Plan) Regime {
		plan.Seed = p.Seed + int64(idx+1)*1000003
		return Regime{Key: key, Desc: desc, Plan: &plan, Jitter: jit}
	}
	return []Regime{
		mk(0, "sync-fixed", "reliable, fixed known delay, synchronized clocks", stepJitter,
			faults.Plan{Delay: faults.Fixed{D: 1}}),
		mk(1, "bounded", "reliable, delay uncertain within a bound (R2-D2)", stepJitter,
			faults.Plan{Delay: p.Delay}),
		mk(2, "async", "reliable, unbounded delay (NG1')", stepJitter,
			faults.Plan{Delay: faults.Unbounded{Span: p.AsyncSpan}}),
		mk(3, "drift-within", "fixed delay, clock drift within the timestamp slack", wideJitter,
			faults.Plan{Delay: faults.Fixed{D: 1}, Drift: 1}),
		mk(4, "drift-beyond", "fixed delay, clock drift beyond the timestamp slack", wideJitter,
			faults.Plan{Delay: faults.Fixed{D: 1}, Drift: p.Drift}),
		mk(5, "lossy", "fixed delay, messages dropped (NG1)", stepJitter,
			faults.Plan{Delay: faults.Fixed{D: 1}, Drop: p.Drop}),
		mk(6, "crash", "fixed delay, processes crash and recover", stepJitter,
			faults.Plan{Delay: faults.Fixed{D: 1}, Crash: faults.CrashSpec{P: p.CrashP, MinDown: 2, MaxDown: 4}}),
		// Duplication rides on the bounded regime's uncertain delay: an
		// at-least-once channel. The extra copies change the receivers'
		// histories (and multiply the sampled run space) but destroy no
		// delivery, so the attainment row must match bounded — duplication
		// alone costs no knowledge, which is exactly why a service can
		// retry deliveries and dedupe without weakening its verdicts.
		mk(7, "dup", "bounded delay, messages duplicated (at-least-once)", stepJitter,
			faults.Plan{Delay: p.Delay, Dup: p.DupP}),
	}
}

// RegimeByKey returns the named regime of the sweep.
func RegimeByKey(p Params, key string) (Regime, error) {
	for _, rg := range Regimes(p) {
		if rg.Key == key {
			return rg, nil
		}
	}
	return Regime{}, fmt.Errorf("scenario: unknown regime %q", key)
}

// broadcast returns the joint protocol: processor 0 broadcasts Payload to
// everyone at its first step after waking if initialized "go"; everyone
// else is silent.
func broadcast(n int) []protocol.Protocol {
	ps := make([]protocol.Protocol, n)
	ps[0] = protocol.Func(func(v protocol.LocalView) []protocol.Outgoing {
		if v.Init != "go" || len(v.Sent) > 0 {
			return nil
		}
		out := make([]protocol.Outgoing, 0, n-1)
		for q := 1; q < n; q++ {
			out = append(out, protocol.Outgoing{To: q, Payload: Payload})
		}
		return out
	})
	for q := 1; q < n; q++ {
		ps[q] = protocol.Silent
	}
	return ps
}

// configs builds the initial configurations of a regime: one "go"
// configuration per jittered broadcaster wake time, plus the "idle"
// configuration in which nothing is ever sent — the paper's NG gating run,
// which keeps a processor that received nothing from concluding the fact
// by clock alone. All processors carry clocks (base offset 0; the plan's
// drift stream perturbs them).
func configs(n int, jitter []runs.Time) []protocol.Config {
	zero := make([]int, n)
	inits := func(s string) []string {
		in := make([]string, n)
		in[0] = s
		return in
	}
	cfgs := make([]protocol.Config, 0, len(jitter)+1)
	for _, w := range jitter {
		wake := make([]runs.Time, n)
		wake[0] = w
		cfgs = append(cfgs, protocol.Config{
			Name:  fmt.Sprintf("go-w%d", w),
			Init:  inits("go"),
			Wake:  wake,
			Clock: zero,
		})
	}
	cfgs = append(cfgs, protocol.Config{Name: "idle", Init: inits("idle"), Clock: zero})
	return cfgs
}

// interpretation maps SentProp to the stable "broadcast initiated" fact and
// DeliveredProp(1..n-1) to the delivery-count ladder.
func interpretation(n int) runs.Interpretation {
	in := runs.Interpretation{SentProp: runs.StablyTrue(runs.SentBy(Payload))}
	for d := 1; d <= n-1; d++ {
		d := d
		in[DeliveredProp(d)] = func(r *runs.Run, t runs.Time) bool {
			return r.DeliveredBefore(t+1) >= d
		}
	}
	return in
}

// Built is a regime's sampled system with its point model and witness
// point, shared by the verdict sweep, the announcement ladder and the CLI.
type Built struct {
	Regime     Regime
	Sys        *runs.System
	PM         *runs.PointModel
	Witness    *runs.Run
	WitnessIdx int
	TStar      runs.Time
}

// Build samples the regime's run system and constructs its point model.
// The witness is the fastest sampled run of the earliest-wake "go"
// configuration — the one whose action point (the first time every one of
// its deliveries is visible) comes soonest. TStar is that action point;
// attainment is judged there, mirroring the E7 discipline: the protocol
// acts as soon as its own deliveries are in, not at late points where
// finite-horizon truncation makes C spuriously true. Judging the fastest
// sample is the regime's best case — what a regime cannot attain on its
// luckiest execution, it cannot attain at all.
func Build(p Params, rg Regime) (*Built, error) {
	p = p.withDefaults()
	cfgs := configs(p.Agents, rg.Jitter)
	sys, err := protocol.SampleSystem(broadcast(p.Agents), rg.Plan, cfgs, p.Samples, p.Horizon, protocol.Options{})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", rg.Key, err)
	}
	prefix := cfgs[0].Name + "#"
	wi := 0
	for ri, r := range sys.Runs {
		if !strings.HasPrefix(r.Name, prefix) {
			continue
		}
		if actionPoint(r) < actionPoint(sys.Runs[wi]) {
			wi = ri
		}
	}
	return &Built{
		Regime:     rg,
		Sys:        sys,
		PM:         sys.Model(runs.CompleteHistoryView, interpretation(p.Agents)),
		Witness:    sys.Runs[wi],
		WitnessIdx: wi,
		TStar:      actionPoint(sys.Runs[wi]),
	}, nil
}

// actionPoint returns the first time every delivery of the run is visible
// (the latest receive time plus one), clipped to the horizon; a run with no
// deliveries is judged at the horizon.
func actionPoint(r *runs.Run) runs.Time {
	t := runs.Time(Lost)
	for _, m := range r.Messages {
		if m.Delivered() && m.RecvTime+1 > t {
			t = m.RecvTime + 1
		}
	}
	if t == Lost || t > r.Horizon {
		return r.Horizon
	}
	return t
}

// Lost aliases runs.Lost for the onset column of the matrix.
const Lost = runs.Lost

// Verdict is one row of the attainment matrix.
type Verdict struct {
	Regime string
	C      bool // common knowledge at the witness action point
	Ceps   bool // ε-common knowledge (Section 11)
	Cev    bool // eventual common knowledge (Section 11)
	Ct     bool // timestamped common knowledge at clock time T (Section 12)
	Runs   int  // deduped sampled runs in the regime's system
	Points int  // worlds of the point model
	TStar  runs.Time
	// Spread is the witness run's knowledge-onset spread (temporal.Onsets);
	// -1 if some processor never learns the fact within the horizon.
	Spread int
}

// Result is a finished sweep.
type Result struct {
	Params   Params
	Verdicts []Verdict
}

// Sweep runs every regime and returns the attainment matrix. Verdicts are
// evaluated in one EvalBatch per regime at the witness action point, so
// the result is byte-identical across repetitions.
func Sweep(p Params) (*Result, error) {
	p = p.withDefaults()
	res := &Result{Params: p}
	phi := logic.P(SentProp)
	for _, rg := range Regimes(p) {
		b, err := Build(p, rg)
		if err != nil {
			return nil, err
		}
		fs := []logic.Formula{
			logic.C(nil, phi),
			logic.Ceps(nil, p.Eps, phi),
			logic.Cev(nil, phi),
			logic.Ct(nil, p.T, phi),
		}
		sets, err := b.PM.EvalBatch(fs)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", rg.Key, err)
		}
		onsets, err := temporal.Onsets(b.PM, phi)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", rg.Key, err)
		}
		w := b.PM.World(b.WitnessIdx, b.TStar)
		res.Verdicts = append(res.Verdicts, Verdict{
			Regime: rg.Key,
			C:      sets[0].Contains(w),
			Ceps:   sets[1].Contains(w),
			Cev:    sets[2].Contains(w),
			Ct:     sets[3].Contains(w),
			Runs:   len(b.Sys.Runs),
			Points: b.PM.NumWorlds(),
			TStar:  b.TStar,
			Spread: temporal.OnsetSpread(onsets[b.WitnessIdx]),
		})
	}
	return res, nil
}

// Matrix renders the attainment matrix. The golden tests and the CI smoke
// sweep compare this string byte for byte.
func (r *Result) Matrix() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attainment matrix: seed=%d agents=%d samples=%d eps=%d T=%d\n",
		r.Params.Seed, r.Params.Agents, r.Params.Samples, r.Params.Eps, r.Params.T)
	fmt.Fprintf(&b, "%-14s %-4s %-6s %-6s %-4s %5s %7s %4s %7s\n",
		"regime", "C", "C^eps", "C^dia", "C^T", "runs", "points", "t*", "spread")
	yn := map[bool]string{true: "yes", false: "no"}
	for _, v := range r.Verdicts {
		spread := strconv.Itoa(v.Spread)
		if v.Spread < 0 {
			spread = "never"
		}
		fmt.Fprintf(&b, "%-14s %-4s %-6s %-6s %-4s %5d %7d %4d %7s\n",
			v.Regime, yn[v.C], yn[v.Ceps], yn[v.Cev], yn[v.Ct], v.Runs, v.Points, v.TStar, spread)
	}
	return b.String()
}

// LadderStep is one link of a regime's delivery announcement chain.
type LadderStep struct {
	// Deliveries is the announced lower bound on delivered messages.
	Deliveries int
	// Points is the surviving world count after the announcement.
	Points int
	// EDepth is the consecutive prefix of true E^k(sent) levels at the
	// witness point, up to the number of receivers.
	EDepth int
	// Common reports C(sent) at the witness point of the link model.
	Common bool
}

// Ladder replays the delivery announcement chain of a built regime on its
// epistemic structure: link d publicly announces "at least d messages were
// delivered", then batch-evaluates the E^k tower and C of the broadcast
// fact at the witness point.
func (b *Built) Ladder(p Params) ([]LadderStep, error) {
	p = p.withDefaults()
	ch := kripke.NewChain(b.PM.Model, b.PM.World(b.WitnessIdx, b.TStar))
	phi := logic.P(SentProp)
	maxDepth := p.Agents - 1
	var steps []LadderStep
	for d := 1; d <= maxDepth; d++ {
		del := logic.P(DeliveredProp(d))
		truthful, err := ch.Holds(del)
		if err != nil {
			return nil, err
		}
		if !truthful {
			break
		}
		if err := ch.Announce(del); err != nil {
			return nil, err
		}
		fs := make([]logic.Formula, 0, maxDepth+1)
		for lvl := 1; lvl <= maxDepth; lvl++ {
			fs = append(fs, logic.EK(nil, lvl, phi))
		}
		fs = append(fs, logic.C(nil, phi))
		sets, err := ch.EvalBatch(fs)
		if err != nil {
			return nil, err
		}
		step := LadderStep{Deliveries: d, Points: ch.NumWorlds()}
		marked := ch.Marked()
		for lvl := 0; lvl < maxDepth; lvl++ {
			if !sets[lvl].Contains(marked) {
				break
			}
			step.EDepth = lvl + 1
		}
		step.Common = sets[maxDepth].Contains(marked)
		steps = append(steps, step)
	}
	return steps, nil
}
