// Package attack implements the coordinated attack problem of Sections 4
// and 7 of Halpern & Moses (after Gray 1978): two generals communicating
// through a messenger who may be captured must attack simultaneously or not
// at all.
//
// Generals are processors (A = 0, B = 1) running the handshake protocol of
// Section 4 over an unreliable channel; general A initiates only in
// configurations where it is in favor of attacking. Attack decisions are
// decision rules — deterministic functions of the local view — layered on
// the generated system. The package machine-checks:
//
//   - Proposition 4: in a correct protocol, whenever the generals attack,
//     "both generals are attacking" is common knowledge.
//   - Corollary 6: over an exhaustive family of decision rules, every rule
//     pair that satisfies the problem constraints (simultaneity; no attack
//     without successful communication) never attacks.
//   - Proposition 10: the same with simultaneity weakened to "if one
//     attacks, the other eventually attacks".
//   - The Section 4/7 observation that d delivered messages produce exactly
//     d levels of alternating knowledge of the attack intent.
package attack

import (
	"fmt"
	"strconv"

	"repro/internal/faults"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/protocol"
	"repro/internal/runs"
)

// General indices.
const (
	GeneralA = 0
	GeneralB = 1
)

// IntentProp is the ground fact "general A is in favor of attacking".
const IntentProp = "intent"

// AttackingProp is the ground fact "both generals are attacking".
const AttackingProp = "attacking"

// System is a generated coordinated-attack system plus bookkeeping.
type System struct {
	Sys *runs.System
	// Budget is the maximum number of handshake messages per run.
	Budget int

	// views caches each general's view timeline per run, so the exhaustive
	// rule searches (thousands of rule pairs over the same runs) replay
	// precomputed views instead of reconstructing each local history per
	// (rule, run, time) probe.
	views [][2]*protocol.Timeline
}

// timelines returns the per-(run, general) view timelines, built on first
// use.
func (s *System) timelines() [][2]*protocol.Timeline {
	if s.views == nil {
		s.views = make([][2]*protocol.Timeline, len(s.Sys.Runs))
		for ri, r := range s.Sys.Runs {
			s.views[ri] = [2]*protocol.Timeline{
				protocol.NewTimeline(r, GeneralA),
				protocol.NewTimeline(r, GeneralB),
			}
		}
	}
	return s.views
}

// attackTime is AttackTime over the cached timeline of run ri.
func (s *System) attackTime(tl [][2]*protocol.Timeline, ri, g int, rule DecisionRule) runs.Time {
	r := s.Sys.Runs[ri]
	for t := runs.Time(0); t <= r.Horizon; t++ {
		if rule(tl[ri][g].At(t)) {
			return t
		}
	}
	return runs.Lost
}

// handshakeProtocols returns the generals' messenger protocol: A initiates
// the handshake if in favor, and each side acknowledges every received
// message with the next message in the chain. The message budget is
// enforced by the generator.
func handshakeProtocols() []protocol.Protocol {
	step := func(v protocol.LocalView) []protocol.Outgoing {
		peer := 1 - v.Me
		if v.Me == GeneralA && v.Init == "go" && len(v.Sent) == 0 && len(v.Received) == 0 {
			return []protocol.Outgoing{{To: peer, Payload: "msg1"}}
		}
		if len(v.Received) == 0 {
			return nil
		}
		// Reply once per received message.
		replies := len(v.Sent)
		if v.Me == GeneralA && v.Init == "go" {
			replies-- // A's first send was the initiation, not a reply
		}
		if replies < len(v.Received) {
			n := len(v.Received) + len(v.Sent) + 1
			return []protocol.Outgoing{{To: peer, Payload: fmt.Sprintf("msg%d", n)}}
		}
		return nil
	}
	return []protocol.Protocol{protocol.Func(step), protocol.Func(step)}
}

// Build generates the coordinated-attack system: the handshake with the
// given message budget over an unreliable unit-delay channel, from the two
// initial configurations (A in favor / not in favor), with identity clocks
// (so decision rules may be time-based), observed up to the horizon.
func Build(budget int, horizon runs.Time) (*System, error) {
	cfgs := []protocol.Config{
		{Name: "go", Init: []string{"go", ""}, Clock: []int{0, 0}},
		{Name: "idle", Init: []string{"", ""}, Clock: []int{0, 0}},
	}
	sys, err := protocol.Generate(handshakeProtocols(), protocol.Unreliable{Delay: 1}, cfgs,
		horizon, protocol.Options{MaxMessagesPerRun: budget})
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	return &System{Sys: sys, Budget: budget}, nil
}

// BuildInjected samples the coordinated-attack system under a seeded fault
// plan instead of branching exhaustively over the unreliable channel: the
// same handshake, but each run's message fates — delay, loss, duplication,
// crash windows — are drawn from the plan's streams by the virtual-clock
// simulation engine. The sampled system supports the same rule searches and
// knowledge checks as the generated one, which makes the unattainability
// results reproducible by injection: any plan with loss in it keeps every
// correct rule pair from ever attacking, exactly as Corollary 6 demands of
// the exhaustive system. Equal arguments produce a byte-identical system.
func BuildInjected(budget int, horizon runs.Time, plan *faults.Plan, samplesPerConfig int) (*System, error) {
	cfgs := []protocol.Config{
		{Name: "go", Init: []string{"go", ""}, Clock: []int{0, 0}},
		{Name: "idle", Init: []string{"", ""}, Clock: []int{0, 0}},
	}
	sys, err := protocol.SampleSystem(handshakeProtocols(), plan, cfgs,
		samplesPerConfig, horizon, protocol.Options{MaxMessagesPerRun: budget})
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	return &System{Sys: sys, Budget: budget}, nil
}

// DecisionRule decides, from a general's local view, whether to attack now.
// The general attacks at the first instant the rule fires.
type DecisionRule func(v protocol.LocalView) bool

// AttackTime returns the first time the rule fires for general g in run r,
// or runs.Lost if it never does.
func AttackTime(r *runs.Run, g int, rule DecisionRule) runs.Time {
	for t := runs.Time(0); t <= r.Horizon; t++ {
		if rule(protocol.ViewAt(r, g, t)) {
			return t
		}
	}
	return runs.Lost
}

// RuleOutcome is the verdict on a decision-rule pair.
type RuleOutcome struct {
	// Simultaneous: in every run, either both generals attack at the same
	// time or neither ever attacks.
	Simultaneous bool
	// EventuallyCoordinated: in every run, if one general attacks then the
	// other (eventually) attacks too.
	EventuallyCoordinated bool
	// NoAttackWithoutComms: in runs where no messages are delivered,
	// neither general attacks (the problem's "no initial plans" premise).
	NoAttackWithoutComms bool
	// EverAttacks: some run has an attack.
	EverAttacks bool
	// Violation describes the first constraint violation found.
	Violation string
}

// Evaluate checks a decision-rule pair against every run of the system.
func (s *System) Evaluate(ruleA, ruleB DecisionRule) RuleOutcome {
	out := RuleOutcome{Simultaneous: true, EventuallyCoordinated: true, NoAttackWithoutComms: true}
	tl := s.timelines()
	for ri, r := range s.Sys.Runs {
		ta := s.attackTime(tl, ri, GeneralA, ruleA)
		tb := s.attackTime(tl, ri, GeneralB, ruleB)
		if ta != runs.Lost || tb != runs.Lost {
			out.EverAttacks = true
		}
		if ta != tb && out.Simultaneous {
			out.Simultaneous = false
			out.Violation = fmt.Sprintf("run %s: A attacks at %d, B at %d", r.Name, ta, tb)
		}
		if (ta == runs.Lost) != (tb == runs.Lost) && out.EventuallyCoordinated {
			out.EventuallyCoordinated = false
			if out.Violation == "" {
				out.Violation = fmt.Sprintf("run %s: one general attacks alone", r.Name)
			}
		}
		if r.DeliveredBefore(r.Horizon+1) == 0 && (ta != runs.Lost || tb != runs.Lost) {
			out.NoAttackWithoutComms = false
			if out.Violation == "" {
				out.Violation = fmt.Sprintf("run %s: attack without any successful communication", r.Name)
			}
		}
	}
	return out
}

// ThresholdRule returns the decision rule "attack at clock time T if at
// least j messages have been received by then".
func ThresholdRule(attackAt int, minReceived int) DecisionRule {
	return func(v protocol.LocalView) bool {
		return v.HasClock && v.Clock >= attackAt && len(v.Received) >= minReceived
	}
}

// EventRule returns the decision rule "attack as soon as at least j
// messages have been received".
func EventRule(minReceived int) DecisionRule {
	return func(v protocol.LocalView) bool {
		return len(v.Received) >= minReceived
	}
}

// Corollary6Report summarizes the exhaustive rule search.
type Corollary6Report struct {
	RulesTried            int
	CorrectRules          int // satisfy simultaneity + no-attack-without-comms
	AttackingAmongCorrect int // correct rules that ever attack (must be 0)
}

// CheckCorollary6 exhaustively evaluates all threshold rule pairs
// (attack times up to the horizon, thresholds up to the budget) and
// verifies Corollary 6: every pair satisfying the problem constraints never
// attacks.
func (s *System) CheckCorollary6() (Corollary6Report, error) {
	var rep Corollary6Report
	horizon := int(s.Sys.Horizon)
	for ta := 0; ta <= horizon; ta++ {
		for ja := 0; ja <= s.Budget; ja++ {
			for tb := 0; tb <= horizon; tb++ {
				for jb := 0; jb <= s.Budget; jb++ {
					rep.RulesTried++
					out := s.Evaluate(ThresholdRule(ta, ja), ThresholdRule(tb, jb))
					if out.Simultaneous && out.NoAttackWithoutComms {
						rep.CorrectRules++
						if out.EverAttacks {
							rep.AttackingAmongCorrect++
							return rep, fmt.Errorf(
								"attack: Corollary 6 violated by rules (T=%d,j=%d)/(T=%d,j=%d)", ta, ja, tb, jb)
						}
					}
				}
			}
		}
	}
	return rep, nil
}

// CheckProposition10 does the same for the weakened requirement of
// Proposition 10 (eventual coordination instead of simultaneity), over
// event-driven rules.
func (s *System) CheckProposition10() (Corollary6Report, error) {
	var rep Corollary6Report
	for ja := 0; ja <= s.Budget+1; ja++ {
		for jb := 0; jb <= s.Budget+1; jb++ {
			rep.RulesTried++
			out := s.Evaluate(EventRule(ja), EventRule(jb))
			if out.EventuallyCoordinated && out.NoAttackWithoutComms {
				rep.CorrectRules++
				if out.EverAttacks {
					rep.AttackingAmongCorrect++
					return rep, fmt.Errorf("attack: Proposition 10 violated by rules j=%d/j=%d", ja, jb)
				}
			}
		}
	}
	return rep, nil
}

// Interp returns the standard interpretation for attack systems, with the
// attacking fact induced by the given decision rules: "attacking" holds at
// (r, t) iff both generals have attacked by t (stable, as the divisions
// stay committed once they attack).
func (s *System) Interp(ruleA, ruleB DecisionRule) runs.Interpretation {
	tl := s.timelines()
	attackTimes := make(map[string][2]runs.Time, len(s.Sys.Runs))
	for ri, r := range s.Sys.Runs {
		attackTimes[r.Name] = [2]runs.Time{
			s.attackTime(tl, ri, GeneralA, ruleA),
			s.attackTime(tl, ri, GeneralB, ruleB),
		}
	}
	return runs.Interpretation{
		IntentProp: func(r *runs.Run, _ runs.Time) bool { return r.Init[GeneralA] == "go" },
		AttackingProp: func(r *runs.Run, t runs.Time) bool {
			at := attackTimes[r.Name]
			return at[0] != runs.Lost && at[1] != runs.Lost && t >= at[0] && t >= at[1]
		},
	}
}

// DeliveredProp returns the ground-fact name for "at least d messages have
// been delivered".
func DeliveredProp(d int) string { return "del" + strconv.Itoa(d) }

// DeliveryInterp extends Interp with the delivery-count facts
// DeliveredProp(1..Budget): "del d" holds at a point (r, t) iff at least d
// messages of the handshake have been delivered by time t. The counts are
// read in O(1) off the precomputed view timelines (a delivery is a receive
// event of one of the generals), not by rescanning the message list per
// point. Point models built with this interpretation support the
// delivery-chain replay of ReplayDeliveryChain.
func (s *System) DeliveryInterp(ruleA, ruleB DecisionRule) runs.Interpretation {
	interp := s.Interp(ruleA, ruleB)
	tl := s.timelines()
	idx := make(map[*runs.Run]int, len(s.Sys.Runs))
	for ri, r := range s.Sys.Runs {
		idx[r] = ri
	}
	for d := 1; d <= s.Budget; d++ {
		d := d
		interp[DeliveredProp(d)] = func(r *runs.Run, t runs.Time) bool {
			pair := tl[idx[r]]
			return pair[GeneralA].ReceivedBefore(t+1)+pair[GeneralB].ReceivedBefore(t+1) >= d
		}
	}
	return interp
}

// BestChainRun returns the name of the initiated run with the most
// delivered messages — the all-delivered handshake, the natural marked
// point of a delivery announcement chain.
func (s *System) BestChainRun() string {
	best, bestD := "", -1
	for _, r := range s.Sys.Runs {
		if r.Init[GeneralA] != "go" {
			continue
		}
		d := 0
		for _, m := range r.Messages {
			if m.Delivered() {
				d++
			}
		}
		if d > bestD {
			best, bestD = r.Name, d
		}
	}
	return best
}

// ChainStep records one link of the delivery announcement chain.
type ChainStep struct {
	// Deliveries is the lower bound just announced ("at least d messages
	// were delivered").
	Deliveries int
	// Points and QuotientWorlds are the surviving point count and the size
	// of the model the link's queries actually evaluated on.
	Points         int
	QuotientWorlds int
	// Depth is the alternating-knowledge depth of the attack intent at the
	// marked point after the announcement (K_B intent, K_A K_B intent, …).
	Depth int
	// Common reports whether C{A,B} intent holds at the marked point.
	Common bool
}

// ReplayDeliveryChain replays the coordinated-attack message chain of
// Sections 4 and 7 as a public-announcement chain on a point model built
// with DeliveryInterp: link d announces DeliveredProp(d), mirroring the
// generals' handshake one delivered message at a time, and records the
// alternating-knowledge depth of the intent and whether it has become
// common knowledge at the marked point (runName at the horizon). The chain
// stops before the first announcement that would be untruthful there.
func (s *System) ReplayDeliveryChain(pm *runs.PointModel, runName string) ([]ChainStep, error) {
	w, err := pm.WorldOf(runName, s.Sys.Horizon)
	if err != nil {
		return nil, err
	}
	ch := kripke.NewChain(pm.Model, w)
	g := logic.NewGroup(GeneralA, GeneralB)
	var steps []ChainStep
	for d := 1; d <= s.Budget; d++ {
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
		step := ChainStep{Deliveries: d, Points: ch.NumWorlds(), QuotientWorlds: ch.QuotientWorlds()}
		marked := ch.Marked()
		// The link's verdicts — the alternating-knowledge tower and the
		// common-knowledge check — are one batch of independent queries
		// against the link model; the recorded depth is the consecutive
		// prefix of true tower levels, the same value the old one-at-a-time
		// loop stopped at.
		fs := make([]logic.Formula, 0, s.Budget+2)
		f := logic.P(IntentProp)
		for lvl := 1; lvl <= s.Budget+1; lvl++ {
			if lvl%2 == 1 {
				f = logic.K(GeneralB, f)
			} else {
				f = logic.K(GeneralA, f)
			}
			fs = append(fs, f)
		}
		fs = append(fs, logic.C(g, logic.P(IntentProp)))
		sets, err := ch.EvalBatch(fs)
		if err != nil {
			return nil, err
		}
		for lvl := 1; lvl <= s.Budget+1; lvl++ {
			if !sets[lvl-1].Contains(marked) {
				break
			}
			step.Depth = lvl
		}
		step.Common = sets[s.Budget+1].Contains(marked)
		steps = append(steps, step)
	}
	return steps, nil
}

// ReliableSystem builds the guaranteed-communication variant: the same
// handshake over a reliable unit-delay channel. Here a correct attacking
// protocol exists, and Proposition 4's conclusion — attack implies common
// knowledge of the attack — is observable positively.
func ReliableSystem(budget int, horizon runs.Time) (*System, error) {
	cfgs := []protocol.Config{
		{Name: "go", Init: []string{"go", ""}, Clock: []int{0, 0}},
		{Name: "idle", Init: []string{"", ""}, Clock: []int{0, 0}},
	}
	sys, err := protocol.Generate(handshakeProtocols(), protocol.Reliable{Delay: 1}, cfgs,
		horizon, protocol.Options{MaxMessagesPerRun: budget})
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	return &System{Sys: sys, Budget: budget}, nil
}

// CheckProposition4 verifies on a point model built from the system (with
// the attacking interpretation) that attacking ⊃ C{A,B} attacking is valid.
func CheckProposition4(pm *runs.PointModel) error {
	g := logic.NewGroup(GeneralA, GeneralB)
	valid, err := pm.Valid(logic.Imp(logic.P(AttackingProp), logic.C(g, logic.P(AttackingProp))))
	if err != nil {
		return err
	}
	if !valid {
		return fmt.Errorf("attack: Proposition 4 violated: attacking without common knowledge of it")
	}
	return nil
}

// MaxEventualDepth returns the largest j such that (E^⋄)^j intent holds at
// (run, 0) on the given model, up to maxJ — used for the Section 11
// counterexample: the infinite conjunction of (E^⋄)^k holds in the
// all-delivered run while C^⋄ intent fails.
func MaxEventualDepth(pm *runs.PointModel, runName string, maxJ int) (int, error) {
	depth := 0
	f := logic.P(IntentProp)
	for j := 1; j <= maxJ; j++ {
		f = logic.Eev(nil, f)
		ok, err := pm.HoldsAt(f, runName, 0)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		depth = j
	}
	return depth, nil
}
