package repro_test

// Regression: every announcement chain of the repository — the attack
// delivery chain, the scenario ladders, the R2-D2 system, the gossip
// revelation chain and the muddy rounds — is a kripke.Chain, which threads
// the quotient block map through each restriction. The table below replays
// each chain link for link against a reference that rebuilds every link
// from scratch: a plain Restrict followed by a fresh quotient-for-eval
// view.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/muddy"
	"repro/internal/protocol"
	"repro/internal/runs"
	"repro/internal/scenario"
)

// chainCase is one announcement chain of the parity table.
type chainCase struct {
	name    string
	model   *kripke.Model
	marked  int
	queries []logic.Formula
	// next returns the announcement of link i on the current link model m:
	// a formula, or — for announcements the model's language cannot
	// express — the set of worlds it keeps. holds judges a formula at the
	// marked world. ok is false once the chain is over.
	next func(i int, m *kripke.Model, holds func(logic.Formula) bool) (f logic.Formula, keep *bitset.Set, ok bool)
}

// truthfulLadder announces fs in order for as long as each is true at the
// marked world.
func truthfulLadder(fs []logic.Formula) func(int, *kripke.Model, func(logic.Formula) bool) (logic.Formula, *bitset.Set, bool) {
	return func(i int, _ *kripke.Model, holds func(logic.Formula) bool) (logic.Formula, *bitset.Set, bool) {
		if i >= len(fs) || !holds(fs[i]) {
			return nil, nil, false
		}
		return fs[i], nil, true
	}
}

func attackCase(t *testing.T) chainCase {
	s, err := attack.Build(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	never := func(protocol.LocalView) bool { return false }
	pm := s.Sys.Model(runs.CompleteHistoryView, s.DeliveryInterp(never, never))
	best := s.BestChainRun()
	w, err := pm.WorldOf(best, s.Sys.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	var dels, queries []logic.Formula
	for d := 1; d <= s.Budget; d++ {
		dels = append(dels, logic.P(attack.DeliveredProp(d)))
	}
	f := logic.P(attack.IntentProp)
	for lvl := 1; lvl <= s.Budget+1; lvl++ {
		f = logic.K(logic.Agent(lvl%2), f) // K_B (agent 1) first, then alternating
		queries = append(queries, f)
	}
	queries = append(queries, logic.C(logic.NewGroup(attack.GeneralA, attack.GeneralB), logic.P(attack.IntentProp)))
	return chainCase{
		name: "attack", model: pm.Model, marked: w, queries: queries,
		next: truthfulLadder(dels),
	}
}

func scenarioCase(t *testing.T, key string, seed int64) chainCase {
	p := scenario.Params{Seed: seed}
	rg, err := scenario.RegimeByKey(p, key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Build(p, rg)
	if err != nil {
		t.Fatal(err)
	}
	sent := logic.P(scenario.SentProp)
	var dels, queries []logic.Formula
	for d := 1; d < b.Sys.N; d++ {
		dels = append(dels, logic.P(scenario.DeliveredProp(d)))
		queries = append(queries, logic.EK(nil, d, sent))
	}
	queries = append(queries, logic.C(nil, sent))
	return chainCase{
		name: fmt.Sprintf("scenario:%s/seed=%d", key, seed), model: b.PM.Model,
		marked: b.PM.World(b.WitnessIdx, b.TStar), queries: queries,
		next: truthfulLadder(dels),
	}
}

func r2d2Case(t *testing.T) chainCase {
	sys := core.R2D2Chain(6, 9)
	pm := sys.Model(runs.CompleteHistoryView, runs.Interpretation{"sent": runs.StablyTrue(runs.SentBy("m"))})
	w, err := pm.WorldOf("s0", sys.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	f := logic.P("sent")
	ladder := []logic.Formula{f}
	for lvl := 1; lvl <= 3; lvl++ {
		f = logic.K(logic.Agent(lvl%2), f)
		ladder = append(ladder, f)
	}
	return chainCase{name: "r2d2", model: pm.Model, marked: w, queries: epistemicBatch("sent"), next: truthfulLadder(ladder)}
}

func gossipCase(t *testing.T, conv gossip.Convention, seed int64) chainCase {
	actual, err := gossip.ParseSequence("ab.cd.ac.bd", 4)
	if err != nil {
		t.Fatal(err)
	}
	m := gossip.SampleDeviations(conv, 4, actual, 8, seed).Model()
	w, ok := m.WorldOf(actual)
	if !ok {
		t.Fatal("actual sequence is not a world of its deviation universe")
	}
	return chainCase{
		name: fmt.Sprintf("gossip:%s/seed=%d", conv.Key(), seed), model: m.M, marked: w,
		queries: gossip.Tower(3),
		// Link i reveals the i-th call; worlds are named by their sequence.
		next: func(i int, lm *kripke.Model, _ func(logic.Formula) bool) (logic.Formula, *bitset.Set, bool) {
			if i >= len(actual) {
				return nil, nil, false
			}
			keep := bitset.New(lm.NumWorlds())
			for v := 0; v < lm.NumWorlds(); v++ {
				if strings.Split(lm.Name(v), ".")[i] == actual[i].String() {
					keep.Add(v)
				}
			}
			return nil, keep, true
		},
	}
}

// muddyCase announces the father's m, then each round's answer vector
// until some child answers yes — the round loop of muddy.Simulate.
func muddyCase(t *testing.T, n int) chainCase {
	dirty := []int{0, 1, 2}
	p, err := muddy.New(n, dirty)
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.ActualWorld()
	if err != nil {
		t.Fatal(err)
	}
	knows := make([]logic.Formula, n)
	for i := range knows {
		mi := logic.P(muddy.MuddyProp(i))
		knows[i] = logic.Disj(logic.K(logic.Agent(i), mi), logic.K(logic.Agent(i), logic.Neg(mi)))
	}
	var answers [][]bool
	return chainCase{
		name: fmt.Sprintf("muddy:%d", n), model: p.Model(), marked: w,
		queries: append([]logic.Formula{logic.C(nil, logic.P(muddy.MProp))}, knows...),
		next: func(i int, _ *kripke.Model, holds func(logic.Formula) bool) (logic.Formula, *bitset.Set, bool) {
			if i == 0 {
				return logic.P(muddy.MProp), nil, true
			}
			if last := len(answers) - 1; last >= 0 && slices.Contains(answers[last], true) {
				return nil, nil, false
			}
			yes := make([]bool, n)
			vector := make([]logic.Formula, n)
			for c, k := range knows {
				yes[c] = holds(k)
				vector[c] = k
				if !yes[c] {
					vector[c] = logic.Neg(k)
				}
			}
			answers = append(answers, yes)
			return logic.Conj(vector...), nil, true
		},
	}
}

// TestChainMatchesScratchReference pins kripke.Chain to the from-scratch
// reference on every announcement chain of the repository: per link, equal
// world and quotient counts, byte-equal quotient block maps, the same
// marked world and the same verdict for every query.
func TestChainMatchesScratchReference(t *testing.T) {
	cases := []chainCase{attackCase(t), r2d2Case(t)}
	for _, key := range []string{"bounded", "async"} {
		for seed := int64(1); seed <= 3; seed++ {
			cases = append(cases, scenarioCase(t, key, seed))
		}
	}
	for _, conv := range gossip.Conventions() {
		for seed := int64(1); seed <= 3; seed++ {
			cases = append(cases, gossipCase(t, conv, seed))
		}
	}
	for n := 4; n <= 6; n++ {
		cases = append(cases, muddyCase(t, n))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ch := kripke.NewChain(c.model, c.marked)
			ref, refMarked := c.model.QuotientForEvalEpistemic(1), c.marked
			holds := func(f logic.Formula) bool {
				ok, err := ref.Holds(f, refMarked)
				if err != nil {
					t.Fatal(err)
				}
				return ok
			}
			compareChainLink(t, 0, ch, ref, refMarked, c.queries)
			links := 0
			for i := 0; ; i++ {
				f, keep, ok := c.next(i, ref.Model(), holds)
				if !ok {
					break
				}
				if f != nil {
					var err error
					if keep, err = ref.Eval(f); err != nil {
						t.Fatal(err)
					}
					if err := ch.Announce(f); err != nil {
						t.Fatalf("link %d: %v", i+1, err)
					}
				} else if err := ch.AnnounceSet(keep); err != nil {
					t.Fatalf("link %d: %v", i+1, err)
				}
				switch {
				case refMarked < 0:
				case keep.Contains(refMarked):
					refMarked = keep.Rank(refMarked)
				default:
					refMarked = -1
				}
				ref = ref.Model().Restrict(keep).QuotientForEvalEpistemic(1)
				compareChainLink(t, i+1, ch, ref, refMarked, c.queries)
				links++
			}
			if links == 0 {
				t.Fatal("chain announced nothing")
			}
		})
	}
}

func compareChainLink(t *testing.T, link int, ch *kripke.Chain, ref *kripke.Quotiented, refMarked int, queries []logic.Formula) {
	t.Helper()
	if ch.NumWorlds() != ref.NumWorlds() || ch.QuotientWorlds() != ref.QuotientWorlds() {
		t.Fatalf("link %d: chain has %d worlds (quotient %d), reference %d (quotient %d)",
			link, ch.NumWorlds(), ch.QuotientWorlds(), ref.NumWorlds(), ref.QuotientWorlds())
	}
	if !slices.Equal(ch.View().Blocks(), ref.Blocks()) {
		t.Fatalf("link %d: quotient block maps differ", link)
	}
	if ch.Marked() != refMarked {
		t.Fatalf("link %d: chain marks world %d, reference %d", link, ch.Marked(), refMarked)
	}
	got, err := ch.EvalBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := ref.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if !got[i].Equal(want) {
			t.Fatalf("link %d: %s holds at %s on the chain, %s on the reference", link, q, got[i], want)
		}
	}
}
