package core

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/agreement"
	"repro/internal/attack"
	"repro/internal/chains"
	"repro/internal/consistency"
	"repro/internal/discovery"
	"repro/internal/fixpoint"
	"repro/internal/imprecision"
	"repro/internal/kbp"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/muddy"
	"repro/internal/protocol"
	"repro/internal/runs"
	"repro/internal/temporal"
)

// E1MuddyChildren regenerates the Section 2 table: with n children and k of
// them muddy, the father's announcement makes the muddy children answer
// "yes" for the first time in round k (after k-1 unanimous "no" rounds);
// without the announcement they never do.
func E1MuddyChildren(n int) (*Report, error) {
	rep := &Report{ID: "E1", Title: fmt.Sprintf("Muddy children, n=%d", n), Pass: true}
	rep.addf("%-4s %-18s %-18s", "k", "announce: 1st yes", "silent: 1st yes")
	for k := 1; k <= n; k++ {
		muddySet := make([]int, k)
		for i := range muddySet {
			muddySet[i] = i
		}
		ann, err := muddy.Simulate(n, muddySet, muddy.PublicAnnouncement, n+2)
		if err != nil {
			return nil, err
		}
		silent, err := muddy.Simulate(n, muddySet, muddy.NoAnnouncement, n+2)
		if err != nil {
			return nil, err
		}
		rep.addf("%-4d %-18d %-18s", k, ann.FirstYesRound, renderRound(silent.FirstYesRound))
		if ann.FirstYesRound != k || !ann.YesAreMuddy {
			rep.failf("k=%d: announcement run deviates from theory", k)
		}
		if silent.FirstYesRound != 0 {
			rep.failf("k=%d: children answered yes without the announcement", k)
		}
	}
	return rep, nil
}

func renderRound(r int) string {
	if r == 0 {
		return "never"
	}
	return fmt.Sprintf("%d", r)
}

// E2KnowledgeDepth regenerates the Section 2/3 depth analysis: before the
// father speaks E^{k-1} m holds but E^k m does not; after the public
// announcement m is common knowledge; private announcements leave C m
// false.
func E2KnowledgeDepth(maxK int) (*Report, error) {
	rep := &Report{ID: "E2", Title: "E-level of m before/after announcement", Pass: true}
	rep.addf("%-4s %-14s %-12s %-12s", "k", "level before", "C m after", "C m private")
	for k := 1; k <= maxK; k++ {
		n := k + 2
		muddySet := make([]int, k)
		for i := range muddySet {
			muddySet[i] = i
		}
		p, err := muddy.New(n, muddySet)
		if err != nil {
			return nil, err
		}
		level, err := p.ELevel(k + 2)
		if err != nil {
			return nil, err
		}
		if err := p.FatherAnnounces(); err != nil {
			return nil, err
		}
		ck, err := p.CommonKnowledgeOfM()
		if err != nil {
			return nil, err
		}

		priv, err := muddy.New(n, muddySet)
		if err != nil {
			return nil, err
		}
		if n <= 8 {
			if err := priv.FatherTellsPrivately(); err != nil {
				return nil, err
			}
		}
		ckPriv, err := priv.CommonKnowledgeOfM()
		if err != nil {
			return nil, err
		}

		rep.addf("%-4d %-14d %-12v %-12v", k, level, ck, ckPriv)
		if level != k-1 {
			rep.failf("k=%d: E-level before announcement = %d, want %d", k, level, k-1)
		}
		if !ck {
			rep.failf("k=%d: C m should hold after public announcement", k)
		}
		if ckPriv {
			rep.failf("k=%d: C m should not hold after private announcements", k)
		}
	}
	return rep, nil
}

// E3Hierarchy regenerates the Section 3 hierarchy demonstration: in a
// message-passing system the chain C ⊆ E^k ⊆ ... ⊆ E ⊆ S ⊆ D ⊆ φ is
// strict at every occupied level, while under a shared (oblivious) view it
// collapses.
func E3Hierarchy() (*Report, error) {
	rep := &Report{ID: "E3", Title: "Hierarchy of states of group knowledge", Pass: true}

	// The chain-of-ignorance model: E^k p loses one world per level.
	n := 10
	m := kripke.NewModel(n, 2)
	for w := 0; w < n-1; w++ {
		m.SetTrue(w, "p")
	}
	for w := 0; w+1 < n; w++ {
		m.Indistinguishable(w%2, w, w+1)
	}
	hr, err := kripke.CheckHierarchy(m, nil, logic.P("p"), n)
	if err != nil {
		return nil, err
	}
	rep.addf("message-passing: |phi|=%d |D|=%d |S|=%d |E^k|=%v |C|=%d ordered=%v",
		hr.Phi, hr.D, hr.S, hr.E, hr.C, hr.Ordered)
	if !hr.Ordered || hr.C != 0 {
		rep.failf("hierarchy should be ordered with empty C")
	}
	for i := 1; i < len(hr.E); i++ {
		if hr.E[i] >= hr.E[i-1] && hr.E[i] != 0 {
			rep.failf("E^%d did not shrink on the chain", i+1)
		}
	}

	// Per-level separation witnesses ("every two levels can be separated
	// by an actual task", Section 3).
	// D ⊊ φ: two worlds nobody can tell apart, φ differing.
	twin := kripke.NewModel(2, 2)
	twin.SetTrue(0, "phi")
	twin.Indistinguishable(0, 0, 1)
	twin.Indistinguishable(1, 0, 1)
	dSet, err := twin.Eval(logic.MustParse("D phi"))
	if err != nil {
		return nil, err
	}
	if dSet.Contains(0) {
		rep.failf("D phi should fail at the twin world")
	}

	// S ⊊ D: the pooled-knowledge example — one agent knows psi, the
	// other psi ⊃ phi; D phi holds where S phi does not.
	pool := kripke.NewModel(4, 2)
	pool.SetTrue(0, "psi")
	pool.SetTrue(1, "psi")
	pool.SetTrue(0, "phi")
	pool.SetTrue(2, "phi")
	pool.Indistinguishable(0, 0, 1)
	pool.Indistinguishable(0, 2, 3)
	pool.Indistinguishable(1, 0, 2)
	pool.Indistinguishable(1, 2, 3)
	dp, err := pool.Eval(logic.MustParse("D phi & ~S phi"))
	if err != nil {
		return nil, err
	}
	if !dp.Contains(0) {
		rep.failf("D phi without S phi should hold at the pooling world")
	}

	// E ⊊ S: one agent sees phi, the other does not.
	one := kripke.NewModel(2, 2)
	one.SetTrue(0, "phi")
	one.Indistinguishable(1, 0, 1)
	se, err := one.Eval(logic.MustParse("S phi & ~E phi"))
	if err != nil {
		return nil, err
	}
	if !se.Contains(0) {
		rep.failf("S phi without E phi should hold")
	}
	rep.addf("separations: D ⊊ phi, S ⊊ D, E ⊊ S, E^{k+1} ⊊ E^k, C ⊊ all E^k — each witnessed")

	// Shared-memory collapse: everyone has the same view.
	shared := kripke.NewModel(6, 3)
	for w := 0; w < 6; w += 2 {
		shared.SetTrue(w, "p")
	}
	for a := 0; a < 3; a++ {
		shared.Indistinguishable(a, 0, 1)
		shared.Indistinguishable(a, 2, 3)
		shared.Indistinguishable(a, 4, 5)
	}
	var sizes []int
	for _, src := range []string{"D p", "S p", "E p", "C p"} {
		s, err := shared.Eval(logic.MustParse(src))
		if err != nil {
			return nil, err
		}
		sizes = append(sizes, s.Count())
	}
	rep.addf("shared memory:   |D|=|S|=|E|=|C| = %v", sizes)
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != sizes[0] {
			rep.failf("hierarchy should collapse under a shared view")
		}
	}
	return rep, nil
}

// E4CoordinatedAttack regenerates the Section 4/7 analysis.
func E4CoordinatedAttack() (*Report, error) {
	rep := &Report{ID: "E4", Title: "Coordinated attack", Pass: true}
	s, err := attack.Build(4, 10)
	if err != nil {
		return nil, err
	}
	never := func(protocol.LocalView) bool { return false }
	pm := s.Sys.Model(runs.CompleteHistoryView, s.Interp(never, never))

	// Table: deliveries -> attained alternating-knowledge depth.
	rep.addf("%-12s %-14s", "deliveries", "depth attained")
	for ri, r := range s.Sys.Runs {
		if r.Init[attack.GeneralA] != "go" {
			continue
		}
		d := 0
		for _, msg := range r.Messages {
			if msg.Delivered() {
				d++
			}
		}
		depth := 0
		f := logic.P(attack.IntentProp)
		for lvl := 1; lvl <= d+1; lvl++ {
			if lvl%2 == 1 {
				f = logic.K(attack.GeneralB, f)
			} else {
				f = logic.K(attack.GeneralA, f)
			}
			set, err := pm.Eval(f)
			if err != nil {
				return nil, err
			}
			if set.Contains(pm.World(ri, s.Sys.Horizon)) {
				depth = lvl
			} else {
				break
			}
		}
		rep.addf("%-12d %-14d", d, depth)
		if depth != d {
			rep.failf("run with %d deliveries attained depth %d", d, depth)
		}
	}

	c6, err := s.CheckCorollary6()
	if err != nil {
		rep.failf("%v", err)
	} else {
		rep.addf("Corollary 6: %d rule pairs, %d correct, 0 attacking", c6.RulesTried, c6.CorrectRules)
	}
	p10, err := s.CheckProposition10()
	if err != nil {
		rep.failf("%v", err)
	} else {
		rep.addf("Proposition 10: %d rule pairs, %d correct, 0 attacking", p10.RulesTried, p10.CorrectRules)
	}
	if err := attack.CheckProposition4(pm); err != nil {
		rep.failf("%v", err)
	} else {
		rep.addf("Proposition 4 holds (unreliable system, never-attack rule)")
	}

	// Positive case: a reliable channel admits a correct attacking
	// protocol, whose attacks are common knowledge.
	rel, err := attack.ReliableSystem(2, 6)
	if err != nil {
		return nil, err
	}
	ruleA := func(v protocol.LocalView) bool { return v.HasClock && v.Clock >= 3 && v.Init == "go" }
	ruleB := attack.ThresholdRule(3, 1)
	out := rel.Evaluate(ruleA, ruleB)
	relPM := rel.Sys.Model(runs.CompleteHistoryView, rel.Interp(ruleA, ruleB))
	if !out.Simultaneous || !out.NoAttackWithoutComms || !out.EverAttacks {
		rep.failf("reliable-channel attacking protocol misbehaves: %+v", out)
	} else if err := attack.CheckProposition4(relPM); err != nil {
		rep.failf("%v", err)
	} else {
		rep.addf("reliable channel: correct attacking protocol exists; attack => C attacking")
	}
	return rep, nil
}

// attackFormulas is the formula family used by the Theorem 5/7 checks.
var attackFormulas = []logic.Formula{
	logic.P(attack.IntentProp),
	logic.P(attack.AttackingProp),
	logic.Neg(logic.P(attack.IntentProp)),
	logic.True,
}

// E5Theorem5 machine-checks Theorem 5 on the unreliable coordinated-attack
// system.
func E5Theorem5() (*Report, error) {
	rep := &Report{ID: "E5", Title: "Theorem 5 (communication not guaranteed)", Pass: true}
	s, err := attack.Build(3, 8)
	if err != nil {
		return nil, err
	}
	if err := protocol.CheckNG1(s.Sys); err != nil {
		rep.failf("%v", err)
	}
	if err := protocol.CheckNG2(s.Sys); err != nil {
		rep.failf("%v", err)
	}
	never := func(protocol.LocalView) bool { return false }
	pm := s.Sys.Model(runs.CompleteHistoryView, s.Interp(never, never))
	results, err := protocol.CheckTheorem5(pm, nil, attackFormulas)
	if err != nil {
		rep.failf("%v", err)
	} else {
		rep.addf("NG1, NG2 hold; %d point/formula comparisons, all consistent", len(results))
	}
	set, err := pm.Eval(logic.C(nil, logic.P(attack.IntentProp)))
	if err != nil {
		return nil, err
	}
	if !set.IsEmpty() {
		rep.failf("C intent attained somewhere")
	} else {
		rep.addf("C intent holds nowhere (Corollary 6 substrate)")
	}
	return rep, nil
}

// E6Theorem7 machine-checks Theorem 7 on an asynchronous one-shot system.
func E6Theorem7() (*Report, error) {
	rep := &Report{ID: "E6", Title: "Theorem 7 (unbounded message delivery)", Pass: true}
	sender := protocol.Func(func(v protocol.LocalView) []protocol.Outgoing {
		if v.Init == "go" && len(v.Sent) == 0 {
			return []protocol.Outgoing{{To: 1, Payload: "m"}}
		}
		return nil
	})
	cfgs := []protocol.Config{
		{Name: "go", Init: []string{"go", ""}},
		{Name: "idle", Init: []string{"", ""}},
	}
	sys, err := protocol.Generate([]protocol.Protocol{sender, protocol.Silent},
		protocol.Async{}, cfgs, 5, protocol.Options{})
	if err != nil {
		return nil, err
	}
	if err := protocol.CheckNG1Prime(sys); err != nil {
		rep.failf("%v", err)
	}
	if err := protocol.CheckNG2(sys); err != nil {
		rep.failf("%v", err)
	}
	pm := sys.Model(runs.CompleteHistoryView, runs.Interpretation{
		"sent": runs.StablyTrue(runs.SentBy("m")),
		"del":  runs.StablyTrue(runs.ReceivedBy("m")),
	})
	formulas := []logic.Formula{logic.P("sent"), logic.P("del")}
	results, err := protocol.CheckTheorem5(pm, nil, formulas)
	if err != nil {
		rep.failf("%v", err)
	} else {
		rep.addf("NG1', NG2 hold; %d comparisons, all consistent", len(results))
	}
	for _, src := range []string{"C sent", "C del"} {
		set, err := pm.Eval(logic.MustParse(src))
		if err != nil {
			return nil, err
		}
		if !set.IsEmpty() {
			rep.failf("%s attained on the async channel", src)
		}
	}
	rep.addf("C sent and C del hold nowhere")
	return rep, nil
}

// R2D2Chain builds the Section 8 R2–D2 system with broadcast spread 1: for
// each send time i in [0, m), one run delivers immediately (r<i>) and one a
// tick later (s<i>). Identity clocks, untimestamped payload.
func R2D2Chain(m int, horizon runs.Time) *runs.System {
	rs := make([]*runs.Run, 0, 2*m)
	for i := 0; i < m; i++ {
		r := runs.NewRun(fmt.Sprintf("r%d", i), 2, horizon)
		r.SetIdentityClock(0)
		r.SetIdentityClock(1)
		r.Send(0, 1, runs.Time(i), runs.Time(i), "m")
		s := runs.NewRun(fmt.Sprintf("s%d", i), 2, horizon)
		s.SetIdentityClock(0)
		s.SetIdentityClock(1)
		s.Send(0, 1, runs.Time(i), runs.Time(i+1), "m")
		rs = append(rs, r, s)
	}
	return runs.MustSystem(rs...)
}

// E7R2D2 regenerates the Section 8 R2–D2 series: level k of alternating
// knowledge (K_R K_D)^k sent(m) is first attained at t_S + k·ε (discrete
// observation shifts the whole ladder by one tick), C sent(m) is never
// attained, C^ε sent(m) holds from the send, and the timestamped
// global-clock variant attains C at t_S + ε.
func E7R2D2() (*Report, error) {
	rep := &Report{ID: "E7", Title: "R2-D2: the cost of one epsilon per level", Pass: true}
	sys := R2D2Chain(6, 9)
	pm := sys.Model(runs.CompleteHistoryView, runs.Interpretation{
		"sent": runs.StablyTrue(runs.SentBy("m")),
	})

	rep.addf("%-6s %-22s", "k", "first t of (K_R K_D)^k in s0")
	phi := logic.P("sent")
	for k := 1; k <= 4; k++ {
		phi = logic.K(0, logic.K(1, phi))
		set, err := pm.Eval(phi)
		if err != nil {
			return nil, err
		}
		first := runs.Time(-1)
		for t := runs.Time(0); t <= sys.Horizon; t++ {
			if w, _ := pm.WorldOf("s0", t); set.Contains(w) {
				first = t
				break
			}
		}
		rep.addf("%-6d %-22d", k, first)
		if first != runs.Time(k+1) {
			rep.failf("level %d first holds at %d, want %d (= t_S + k·eps + obs. lag)", k, first, k+1)
		}
	}

	c, err := pm.Eval(logic.MustParse("C sent"))
	if err != nil {
		return nil, err
	}
	unattained := true
	for ri := range sys.Runs {
		for t := runs.Time(0); t < 5; t++ {
			if c.Contains(pm.World(ri, t)) {
				unattained = false
			}
		}
	}
	if unattained {
		rep.addf("C sent unattained while send times remain uncertain")
	} else {
		rep.failf("C sent attained on the chain")
	}

	ce, err := pm.Eval(logic.MustParse("Ce[1] sent"))
	if err != nil {
		return nil, err
	}
	if w, _ := pm.WorldOf("r0", 0); !ce.Contains(w) {
		rep.failf("Ce[1] sent should hold at the send point")
	} else {
		rep.addf("Ce[1] sent holds from the send (broadcast spread eps, L=0)")
	}

	// Global clock + timestamped payload: the two-run system attains C at
	// t_S + eps (observed at t_S + eps + 1 with the discrete lag).
	r0 := runs.NewRun("recv_now", 2, 6)
	r0.Send(0, 1, 2, 2, "m@2")
	r1 := runs.NewRun("recv_later", 2, 6)
	r1.Send(0, 1, 2, 3, "m@2")
	never := runs.NewRun("never", 2, 6)
	for _, r := range []*runs.Run{r0, r1, never} {
		r.SetIdentityClock(0)
		r.SetIdentityClock(1)
	}
	tsys := runs.MustSystem(r0, r1, never)
	tpm := tsys.Model(runs.CompleteHistoryView, runs.Interpretation{
		"sent": runs.StablyTrue(runs.SentBy("m@2")),
	})
	tc, err := tpm.Eval(logic.MustParse("C sent"))
	if err != nil {
		return nil, err
	}
	w4, _ := tpm.WorldOf("recv_now", 4)
	w3, _ := tpm.WorldOf("recv_now", 3)
	if tc.Contains(w4) && !tc.Contains(w3) {
		rep.addf("timestamp + global clock: C sent attained exactly at t_S+eps (observed)")
	} else {
		rep.failf("timestamped variant: C sent at t=3: %v, t=4: %v", tc.Contains(w3), tc.Contains(w4))
	}
	return rep, nil
}

// E8Imprecision machine-checks Appendix B on the Proposition 15 system.
func E8Imprecision() (*Report, error) {
	rep := &Report{ID: "E8", Title: "Temporal imprecision (Theorem 8, Appendix B)", Pass: true}
	sys, err := imprecision.UncertainSystem(imprecision.UncertainConfig{
		MaxWake: 2, MinDelay: 1, MaxDelay: 2, Horizon: 6,
	})
	if err != nil {
		return nil, err
	}
	irep := imprecision.CheckImprecision(sys)
	rep.addf("imprecision witnesses: %d/%d tuples (discrete boundary corners excepted)",
		irep.Witnessed, irep.PointsChecked)
	if float64(irep.Witnessed) < 0.8*float64(irep.PointsChecked) {
		rep.failf("too few imprecision witnesses")
	}
	pm := sys.Model(runs.CompleteHistoryView, imprecision.Interp())
	if err := imprecision.CheckLemma14(pm); err != nil {
		rep.failf("%v", err)
	} else {
		rep.addf("Lemma 14: (r,0) reachable from every (r,t)")
	}
	family := []logic.Formula{
		logic.P(imprecision.DeliveredProp),
		logic.P("sent"),
		logic.K(0, logic.P("sent")),
		logic.True,
	}
	if err := imprecision.CheckProposition13(pm, nil, family); err != nil {
		rep.failf("%v", err)
	} else {
		rep.addf("Proposition 13: C constant along reachable runs")
	}
	if err := imprecision.CheckTheorem8(pm, nil, family); err != nil {
		rep.failf("%v", err)
	} else {
		rep.addf("Theorem 8: common knowledge neither gained nor lost")
	}
	return rep, nil
}

// E9EpsilonEventual regenerates the Section 11 analysis: the OK protocol
// (successful communication prevents C^ε ψ), Theorem 9 on lossy systems,
// Theorem 11 on asynchronous ones, and the (E^⋄)^k-without-C^⋄
// counterexample.
func E9EpsilonEventual() (*Report, error) {
	rep := &Report{ID: "E9", Title: "Attainable variants: C^eps and C^dia", Pass: true}

	pm, err := temporal.OKSystem(8)
	if err != nil {
		return nil, err
	}
	for _, src := range []string{"psi -> Ee[2] psi", "psi -> Ce[2] psi"} {
		valid, err := pm.Valid(logic.MustParse(src))
		if err != nil {
			return nil, err
		}
		if !valid {
			rep.failf("%s not valid in the OK system", src)
		}
	}
	lost, err := temporal.AllLostRun(pm.Sys)
	if err != nil {
		return nil, err
	}
	okAt, err := pm.HoldsAt(logic.MustParse("Ce[2] psi"), lost, temporal.RoundLength)
	if err != nil {
		return nil, err
	}
	full, err := temporal.FullyDeliveredRun(pm.Sys)
	if err != nil {
		return nil, err
	}
	ce, err := pm.Eval(logic.MustParse("Ce[2] psi"))
	if err != nil {
		return nil, err
	}
	noneAtFull := true
	for t := runs.Time(0); t <= pm.Sys.Horizon; t++ {
		if w, _ := pm.WorldOf(full, t); ce.Contains(w) {
			noneAtFull = false
		}
	}
	if okAt && noneAtFull {
		rep.addf("OK protocol: Ce[2] psi holds under lost messages, never under full delivery")
	} else {
		rep.failf("OK protocol deviates: lost=%v full-free=%v", okAt, noneAtFull)
	}

	// Theorem 9 premise failure for psi (C^eps psi holds in the silent
	// run) must be detected.
	err = temporal.CheckTheorem9(pm, func() logic.Formula {
		return logic.Ceps(nil, temporal.RoundLength, logic.P(temporal.LossProp))
	})
	if errors.Is(err, temporal.ErrPremiseFails) {
		rep.addf("Theorem 9: premise correctly fails for psi on the OK system")
	} else {
		rep.failf("Theorem 9 premise check: %v", err)
	}

	// Theorems 9 and 11 on a lossy one-shot system.
	s, err := attack.Build(3, 8)
	if err != nil {
		return nil, err
	}
	neverRule := func(protocol.LocalView) bool { return false }
	apm := s.Sys.Model(runs.CompleteHistoryView, s.Interp(neverRule, neverRule))
	for _, mk := range []func() logic.Formula{
		func() logic.Formula { return logic.Ceps(nil, 2, logic.P(attack.IntentProp)) },
		func() logic.Formula { return logic.Cev(nil, logic.P(attack.IntentProp)) },
	} {
		if err := temporal.CheckTheorem9(apm, mk); err != nil {
			rep.failf("Theorem 9 for %s: %v", mk(), err)
		}
	}
	rep.addf("Theorem 9: C^eps/C^dia of intent gated by the silent run (fails everywhere)")

	// (E^dia)^k tower without C^dia.
	s4, err := attack.Build(4, 10)
	if err != nil {
		return nil, err
	}
	apm4 := s4.Sys.Model(runs.CompleteHistoryView, s4.Interp(neverRule, neverRule))
	var fullRun string
	best := -1
	for _, r := range s4.Sys.Runs {
		d := 0
		for _, m := range r.Messages {
			if m.Delivered() {
				d++
			}
		}
		if r.Init[attack.GeneralA] == "go" && d > best {
			best, fullRun = d, r.Name
		}
	}
	depth, err := attack.MaxEventualDepth(apm4, fullRun, 8)
	if err != nil {
		return nil, err
	}
	cv, err := apm4.Eval(logic.Cev(nil, logic.P(attack.IntentProp)))
	if err != nil {
		return nil, err
	}
	if depth >= 3 && cv.IsEmpty() {
		rep.addf("(E^dia)^k intent holds to depth %d in the all-delivered run; C^dia intent never", depth)
	} else {
		rep.failf("tower depth %d, C^dia empty=%v", depth, cv.IsEmpty())
	}
	return rep, nil
}

// E10Timestamped machine-checks Theorem 12.
func E10Timestamped() (*Report, error) {
	rep := &Report{ID: "E10", Title: "Timestamped common knowledge (Theorem 12)", Pass: true}
	build := func(offsets [2]int) *runs.PointModel {
		mk := func(name string, send bool, recv runs.Time) *runs.Run {
			r := runs.NewRun(name, 2, 8)
			r.SetShiftedClock(0, offsets[0])
			r.SetShiftedClock(1, offsets[1])
			if send {
				r.Send(0, 1, 1, recv, "m")
			}
			return r
		}
		sys := runs.MustSystem(
			mk("fast", true, 2),
			mk("slow", true, 3),
			mk("idle", false, 0),
		)
		return sys.Model(runs.CompleteHistoryView, runs.Interpretation{
			"sent": runs.StablyTrue(runs.SentBy("m")),
		})
	}

	pmA := build([2]int{0, 0})
	okA := true
	for ts := 0; ts <= 8; ts++ {
		if err := temporal.CheckTheorem12a(pmA, nil, ts, logic.P("sent")); err != nil {
			rep.failf("12(a) at T=%d: %v", ts, err)
			okA = false
		}
	}
	if okA {
		rep.addf("12(a): identical clocks => C^T == C at time T")
	}

	pmB := build([2]int{0, 1})
	okB := true
	for ts := 1; ts <= 8; ts++ {
		if err := temporal.CheckTheorem12b(pmB, nil, ts, 1, logic.P("sent")); err != nil {
			rep.failf("12(b) at T=%d: %v", ts, err)
			okB = false
		}
	}
	if okB {
		rep.addf("12(b): eps-synchronized clocks => C^T implies C^eps")
	}

	pmC := build([2]int{0, 2})
	okC := true
	for ts := 2; ts <= 8; ts++ {
		if err := temporal.CheckTheorem12c(pmC, nil, ts, logic.P("sent")); err != nil {
			rep.failf("12(c) at T=%d: %v", ts, err)
			okC = false
		}
	}
	if okC {
		rep.addf("12(c): clocks reaching T => C^T implies C^dia")
	}
	return rep, nil
}

// E11S5 machine-checks Proposition 1 (S5 for K_i, D_G, C_G), the fixed
// point axiom C1, the induction rule C2, and Lemma 2, on seeded random
// view-based models.
func E11S5() (*Report, error) {
	rep := &Report{ID: "E11", Title: "Proposition 1: S5, C1, C2, Lemma 2", Pass: true}
	samples := []logic.Formula{
		logic.P("p"),
		logic.P("q"),
		logic.Neg(logic.P("p")),
		logic.Disj(logic.P("p"), logic.P("q")),
		logic.Disj(logic.P("p"), logic.Neg(logic.P("p"))),
		logic.K(0, logic.P("p")),
	}
	rng := rand.New(rand.NewSource(42))
	models := 0
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(20)
		m := kripke.NewModel(n, 3)
		for w := 0; w < n; w++ {
			if rng.Intn(2) == 0 {
				m.SetTrue(w, "p")
			}
			if rng.Intn(2) == 0 {
				m.SetTrue(w, "q")
			}
		}
		for a := 0; a < 3; a++ {
			for k := 0; k < n; k++ {
				m.Indistinguishable(a, rng.Intn(n), rng.Intn(n))
			}
		}
		g := logic.NewGroup(0, 1)
		ops := map[string]kripke.Op{
			"K0":     func(x logic.Formula) logic.Formula { return logic.K(0, x) },
			"D{0,1}": func(x logic.Formula) logic.Formula { return logic.D(g, x) },
			"C{0,1}": func(x logic.Formula) logic.Formula { return logic.C(g, x) },
		}
		for name, op := range ops {
			r, err := kripke.CheckS5(m, op, samples)
			if err != nil {
				return nil, err
			}
			if !r.AllHold() {
				rep.failf("S5 fails for %s: %s", name, r.Failure)
			}
		}
		if err := kripke.CheckFixedPointAxiom(m, g, samples); err != nil {
			rep.failf("%v", err)
		}
		if err := kripke.CheckInductionRule(m, g, samples); err != nil {
			rep.failf("%v", err)
		}
		if err := kripke.CheckLemma2(m, g, samples); err != nil {
			rep.failf("%v", err)
		}
		models++
	}
	if rep.Pass {
		rep.addf("S5 (A1-A4, R1) for K, D, C; C1; C2; Lemma 2 — all hold on %d random models", models)
	}
	return rep, nil
}

// E12InternalConsistency regenerates the Section 13 commit example.
func E12InternalConsistency() (*Report, error) {
	rep := &Report{ID: "E12", Title: "Internal knowledge consistency (eager commit)", Pass: true}
	sys, interp, err := consistency.CommitSystem(6)
	if err != nil {
		return nil, err
	}
	pm := sys.Model(runs.CompleteHistoryView, interp)
	viol, err := consistency.CheckKnowledgeConsistent(pm, consistency.EagerCommit())
	if err != nil {
		return nil, err
	}
	if len(viol) == 0 {
		rep.failf("eager commit should violate the knowledge axiom")
	} else {
		rep.addf("eager interpretation: %d knowledge-axiom violations (window of vulnerability)", len(viol))
	}
	names, err := consistency.FindConsistentSubsystem(sys, runs.CompleteHistoryView, interp, consistency.EagerCommit())
	if err != nil {
		rep.failf("%v", err)
	} else {
		rep.addf("internally consistent wrt subsystem %v", names)
	}
	return rep, nil
}

// E13Fixpoint regenerates the Appendix A analysis.
func E13Fixpoint() (*Report, error) {
	rep := &Report{ID: "E13", Title: "Fixed-point semantics (Appendix A)", Pass: true}

	n := 12
	m := kripke.NewModel(n, 2)
	for w := 0; w < n-1; w++ {
		m.SetTrue(w, "p")
	}
	for w := 0; w+1 < n; w++ {
		m.Indistinguishable(w%2, w, w+1)
	}
	direct, err := m.Eval(logic.MustParse("C p"))
	if err != nil {
		return nil, err
	}
	// The plain Knaster–Tarski loop, outside the evaluator.
	gfp, iters, err := fixpoint.GFP(fixpoint.FuncOf(m, logic.MustParse("E (p & X)"), "X", nil), n)
	if err != nil {
		return nil, err
	}
	if !direct.Equal(gfp) {
		rep.failf("gfp iteration disagrees with reachability components")
	} else {
		rep.addf("C p by gfp == C p by components; %d iterations on the %d-world chain", iters, n)
	}

	// The same fixed point by the evaluator's chaotic iteration, which
	// propagates only the worlds that left the approximant.
	wl, wlRounds, err := m.CommonKnowledgeByIteration(nil, logic.P("p"))
	if err != nil {
		return nil, err
	}
	if !wl.Equal(direct) {
		rep.failf("chaotic iteration disagrees with reachability components")
	} else if wlRounds != iters {
		rep.failf("chaotic iteration took %d rounds, Knaster–Tarski %d", wlRounds, iters)
	} else {
		rep.addf("C p by chaotic iteration (worklist) agrees, same %d rounds", wlRounds)
	}

	nu := logic.MustParse("nu X . E (p & X)").(logic.Nu)
	if err := fixpoint.CheckFixedPointAxiom(m, nu); err != nil {
		rep.failf("%v", err)
	} else {
		rep.addf("fixed point axiom: nu X . E(p & X) == its unfolding")
	}
	if err := fixpoint.CheckInductionRule(m, nu, []logic.Formula{logic.P("p"), logic.False}); err != nil {
		rep.failf("%v", err)
	} else {
		rep.addf("induction rule verified")
	}

	// Tower vs gfp divergence on the attack system.
	s, err := attack.Build(4, 10)
	if err != nil {
		return nil, err
	}
	neverRule := func(protocol.LocalView) bool { return false }
	pm := s.Sys.Model(runs.CompleteHistoryView, s.Interp(neverRule, neverRule))
	op := func(f logic.Formula) logic.Formula { return logic.Eev(nil, f) }
	tower, gfp, err := fixpoint.TowerVsGFP(pm.Model, op, logic.P(attack.IntentProp), 3)
	if err != nil {
		return nil, err
	}
	if gfp.SubsetOf(tower) && tower.Count() > gfp.Count() {
		rep.addf("(E^dia)^k tower holds at %d points; gfp C^dia at %d — strictly below the conjunction",
			tower.Count(), gfp.Count())
	} else {
		rep.failf("tower=%d gfp=%d", tower.Count(), gfp.Count())
	}
	return rep, nil
}

// E14Agreement regenerates the Section 12 phase-protocol discussion: under
// lockstep phases the decision value is common knowledge at the decision
// point; under phase jitter only timestamped ("end of phase") and ε-common
// knowledge are attained.
func E14Agreement() (*Report, error) {
	rep := &Report{ID: "E14", Title: "Phase-based agreement (Section 12 discussion)", Pass: true}

	lockCfg := agreement.Config{N: 2, Variant: agreement.Lockstep, MinDelay: 1, MaxDelay: 1, Horizon: 5}
	sys, interp, err := agreement.Build(lockCfg)
	if err != nil {
		return nil, err
	}
	lock, err := agreement.Check(lockCfg, sys, interp)
	if err != nil {
		return nil, err
	}
	rep.addf("lockstep: C@decision=%v C^T@phase-end=%v (spread %d)",
		lock.CAtFirstDecision, lock.CTAtPhaseEnd, agreement.DecisionSpread(sys))
	if !lock.CAtFirstDecision || !lock.CTAtPhaseEnd || !lock.CepsOnFirstDecision {
		rep.failf("lockstep claims violated: %+v", lock)
	}

	jitCfg := agreement.Config{N: 2, Variant: agreement.Jittered, MinDelay: 1, MaxDelay: 2, Horizon: 6}
	jsys, jinterp, err := agreement.Build(jitCfg)
	if err != nil {
		return nil, err
	}
	jit, err := agreement.Check(jitCfg, jsys, jinterp)
	if err != nil {
		return nil, err
	}
	rep.addf("jittered: C@decision=%v C-by-bound=%v C^T@phase-end=%v C^eps@decision=%v (spread %d)",
		jit.CAtFirstDecision, jit.CByPhaseEnd, jit.CTAtPhaseEnd, jit.CepsOnFirstDecision,
		agreement.DecisionSpread(jsys))
	if jit.CAtFirstDecision {
		rep.failf("jittered deciders should not have C at their decision point")
	}
	if !jit.CByPhaseEnd || !jit.CTAtPhaseEnd || !jit.CepsOnFirstDecision {
		rep.failf("jittered claims violated: %+v", jit)
	}
	return rep, nil
}

// E15MessageChains machine-checks the Chandy–Misra knowledge-gain theorem
// (cited in Sections 8, 14 and Appendix B) on relay systems: knowledge of
// another processor's initial state is always backed by a message chain.
func E15MessageChains() (*Report, error) {
	rep := &Report{ID: "E15", Title: "Knowledge gain requires message chains", Pass: true}
	src := protocol.Func(func(v protocol.LocalView) []protocol.Outgoing {
		if v.Me == 0 && len(v.Sent) == 0 {
			return []protocol.Outgoing{{To: 1, Payload: "bit=" + v.Init}}
		}
		return nil
	})
	fwd := protocol.Func(func(v protocol.LocalView) []protocol.Outgoing {
		if v.Me == 1 && len(v.Received) > len(v.Sent) {
			return []protocol.Outgoing{{To: 2, Payload: "fwd:" + v.Received[len(v.Sent)].Payload}}
		}
		return nil
	})
	cfgs := []protocol.Config{
		{Name: "one", Init: []string{"1", "", ""}},
		{Name: "zero", Init: []string{"0", "", ""}},
	}
	for _, ch := range []protocol.Channel{
		protocol.Reliable{Delay: 1},
		protocol.Unreliable{Delay: 1},
		protocol.BoundedDelay{Min: 1, Max: 2},
	} {
		sys, err := protocol.Generate([]protocol.Protocol{src, fwd, protocol.Silent}, ch, cfgs, 8,
			protocol.Options{MaxMessagesPerRun: 4})
		if err != nil {
			return nil, err
		}
		pm := sys.Model(runs.CompleteHistoryView, chains.InitInterpretation(sys))
		gain, err := chains.CheckKnowledgeGain(pm)
		if err != nil {
			rep.failf("%s: %v", ch.Name(), err)
			continue
		}
		rep.addf("%-22s %d knowledge points, every one backed by a chain", ch.Name(), gain.PointsChecked)
		if gain.PointsChecked == 0 {
			rep.failf("%s: relay produced no knowledge", ch.Name())
		}
	}
	return rep, nil
}

// E16FactDiscovery regenerates the Section 3 view of communication as
// climbing the knowledge hierarchy, on the paper's own example of deadlock
// detection: D at the start, S when the detector learns both edges, E when
// the verdict returns, and C only when the system supports simultaneity
// (clocks + reliable delivery).
func E16FactDiscovery() (*Report, error) {
	rep := &Report{ID: "E16", Title: "Fact discovery and publication (deadlock detection)", Pass: true}
	render := func(t runs.Time) string {
		if t == runs.Lost {
			return "never"
		}
		return fmt.Sprintf("%d", t)
	}
	type variant struct {
		name       string
		ch         protocol.Channel
		withClocks bool
		wantC      bool
	}
	rep.addf("%-28s %-5s %-5s %-5s %-6s", "variant", "D", "S", "E", "C")
	for _, v := range []variant{
		{"reliable + clocks", protocol.Reliable{Delay: 1}, true, true},
		{"reliable, clockless", protocol.Reliable{Delay: 1}, false, false},
		{"unreliable + clocks", protocol.Unreliable{Delay: 1}, true, false},
	} {
		pm, err := discovery.Build(v.ch, 8, v.withClocks)
		if err != nil {
			return nil, err
		}
		run, err := discovery.DeadlockRunWithDeliveries(pm, 2)
		if err != nil {
			return nil, err
		}
		climb, err := discovery.ClimbIn(pm, run)
		if err != nil {
			return nil, err
		}
		rep.addf("%-28s %-5s %-5s %-5s %-6s", v.name,
			render(climb.D), render(climb.S), render(climb.E), render(climb.C))
		if climb.D != 0 || climb.S != 2 || climb.E != 4 {
			rep.failf("%s: discovery climb deviates (D=%d S=%d E=%d)", v.name, climb.D, climb.S, climb.E)
		}
		if v.wantC && climb.C == runs.Lost {
			rep.failf("%s: publication should succeed", v.name)
		}
		if !v.wantC && climb.C != runs.Lost {
			rep.failf("%s: publication should fail", v.name)
		}
	}
	return rep, nil
}

// E17KnowledgeBasedProgram runs the Section 14 knowledge-based protocol
// machinery on the bit-transmission problem: the fixed-point system exists,
// realizes the program's epistemic goals, and a paradoxical program is
// correctly reported as having no fixed point.
func E17KnowledgeBasedProgram() (*Report, error) {
	rep := &Report{ID: "E17", Title: "Knowledge-based programs (bit transmission)", Pass: true}
	prog, cfgs := kbp.BitTransmission([]string{"0", "1"}, 2)
	for _, ch := range []protocol.Channel{protocol.Reliable{Delay: 1}, protocol.Unreliable{Delay: 1}} {
		res, err := kbp.Fixpoint(prog, ch, cfgs, 8, protocol.Options{MaxMessagesPerRun: 6}, 8)
		if err != nil {
			rep.failf("%s: %v", ch.Name(), err)
			continue
		}
		recvKnows := logic.Disj(logic.K(1, logic.P("bit0")), logic.K(1, logic.P("bit1")))
		set, err := res.PM.Eval(logic.K(0, recvKnows))
		if err != nil {
			return nil, err
		}
		achieved := 0
		for ri := range res.PM.Sys.Runs {
			if set.Contains(res.PM.World(ri, res.PM.Sys.Horizon)) {
				achieved++
			}
		}
		rep.addf("%-22s fixed point in %d iterations, %d runs, goal K_S K_R bit in %d runs",
			ch.Name(), res.Iterations, len(res.PM.Sys.Runs), achieved)
		if achieved == 0 {
			rep.failf("%s: the program never achieves its goal", ch.Name())
		}
	}
	// The paradoxical program has no fixed point.
	paradox := kbp.Program{
		Rules: map[int][]kbp.Rule{
			0: {{
				Name:     "paradox",
				When:     logic.Neg(logic.P("sent0")),
				To:       1,
				Payload:  func(protocol.LocalView) string { return "x" },
				MaxSends: 1,
			}},
		},
		Interp: runs.Interpretation{"sent0": runs.StablyTrue(runs.SentBy("x"))},
	}
	pcfgs := []protocol.Config{{Name: "c", Init: []string{"", ""}}}
	if _, err := kbp.Fixpoint(paradox, protocol.Reliable{Delay: 1}, pcfgs, 4, protocol.Options{}, 6); err == nil {
		rep.failf("paradoxical program should have no fixed point")
	} else {
		rep.addf("paradoxical program correctly reported: no fixed point")
	}
	return rep, nil
}
