// Benchmarks regenerating every experiment of the reproduction (one per
// experiment E1–E17; README's "Paper section → package map" indexes them),
// plus ablation benchmarks for the design choices the library makes. Run
// with:
//
//	go test -bench=. -benchmem .
package repro_test

import (
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/muddy"
	"repro/internal/scenario"
)

// benchExperiment runs one experiment driver repeatedly, failing the bench
// if the reproduction deviates from the paper.
func benchExperiment(b *testing.B, run func() (*core.Report, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Pass {
			b.Fatalf("experiment failed:\n%s", rep)
		}
	}
}

func BenchmarkE1MuddyChildren(b *testing.B) {
	benchExperiment(b, func() (*core.Report, error) { return core.E1MuddyChildren(6) })
}

func BenchmarkE2KnowledgeDepth(b *testing.B) {
	benchExperiment(b, func() (*core.Report, error) { return core.E2KnowledgeDepth(5) })
}

func BenchmarkE3Hierarchy(b *testing.B) {
	benchExperiment(b, core.E3Hierarchy)
}

func BenchmarkE4CoordinatedAttack(b *testing.B) {
	benchExperiment(b, core.E4CoordinatedAttack)
}

func BenchmarkE5Theorem5(b *testing.B) {
	benchExperiment(b, core.E5Theorem5)
}

func BenchmarkE6Theorem7(b *testing.B) {
	benchExperiment(b, core.E6Theorem7)
}

func BenchmarkE7R2D2(b *testing.B) {
	benchExperiment(b, core.E7R2D2)
}

func BenchmarkE8Imprecision(b *testing.B) {
	benchExperiment(b, core.E8Imprecision)
}

func BenchmarkE9EpsilonEventual(b *testing.B) {
	benchExperiment(b, core.E9EpsilonEventual)
}

func BenchmarkE10Timestamped(b *testing.B) {
	benchExperiment(b, core.E10Timestamped)
}

func BenchmarkE11S5(b *testing.B) {
	benchExperiment(b, core.E11S5)
}

func BenchmarkE12InternalConsistency(b *testing.B) {
	benchExperiment(b, core.E12InternalConsistency)
}

func BenchmarkE13Fixpoint(b *testing.B) {
	benchExperiment(b, core.E13Fixpoint)
}

func BenchmarkE14Agreement(b *testing.B) {
	benchExperiment(b, core.E14Agreement)
}

func BenchmarkE15MessageChains(b *testing.B) {
	benchExperiment(b, core.E15MessageChains)
}

func BenchmarkE16FactDiscovery(b *testing.B) {
	benchExperiment(b, core.E16FactDiscovery)
}

func BenchmarkE17KnowledgeBasedProgram(b *testing.B) {
	benchExperiment(b, core.E17KnowledgeBasedProgram)
}

// Ablation: evaluation on a point model before and after bisimulation
// minimization (silent run tails collapse).
func BenchmarkAblationMinimizedEvaluation(b *testing.B) {
	sys := core.R2D2Chain(6, 9)
	pm := sys.Model(repro.CompleteHistoryView, repro.Interpretation{
		"sent": repro.StablyTrue(repro.SentBy("m")),
	})
	f := repro.MustParse("C sent")
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pm.Eval(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	mini, _ := pm.Model.Minimize()
	b.Run("minimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mini.Eval(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations -----------------------------------------------------------

// chainModel is the strict-hierarchy model used by the ablations.
func chainModel(n int) *kripke.Model {
	m := kripke.NewModel(n, 2)
	for w := 0; w < n-1; w++ {
		m.SetTrue(w, "p")
	}
	for w := 0; w+1 < n; w++ {
		m.Indistinguishable(w%2, w, w+1)
	}
	return m
}

// Ablation: common knowledge via reachability components (the default)
// versus greatest-fixed-point iteration. On a chain of n worlds the gfp
// needs ~n iterations, so components win asymptotically.
func BenchmarkAblationCommonByComponents(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := chainModel(n)
			f := logic.C(nil, logic.P("p"))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Eval(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationCommonByIteration(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := chainModel(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.CommonKnowledgeByIteration(nil, logic.P("p")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: muddy children model size — the 2^n-world model construction
// and a full simulation, as n grows.
func BenchmarkAblationMuddyScaling(b *testing.B) {
	for _, n := range []int{6, 9, 12, 15} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			muddySet := []int{0, 1, 2}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := muddy.Simulate(n, muddySet, muddy.PublicAnnouncement, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// redundantChain builds a model whose bisimulation quotient is a chain of
// `blocks` worlds (fact p marks one end; two agents alternate in pairing
// adjacent blocks into classes), with every block blown up to `copies`
// bisimilar copies. It is the worst case for from-scratch minimization —
// the refinement has to walk the whole chain, one block per round, over
// all blocks*copies worlds — and the best case for the seeded re-refinement,
// which re-confirms the renamed old blocks in one round.
func redundantChain(blocks, copies int) *kripke.Model {
	w := blocks * copies
	b := kripke.NewBuilder(w, 2)
	col := b.Column("p")
	for i := 0; i < copies; i++ {
		col.Add(i)
	}
	ids0 := make([]int32, w)
	ids1 := make([]int32, w)
	for i := 0; i < w; i++ {
		blk := i / copies
		ids0[i] = int32(blk / 2)
		ids1[i] = int32((blk + 1) / 2)
	}
	b.SetPartition(0, ids0, (blocks+1)/2)
	b.SetPartition(1, ids1, blocks/2+1)
	return b.Build()
}

// Ablation: a chained sequence of announcements, re-minimizing after every
// restriction — the announcement-chain hot path. The incremental arm
// threads the block map through RestrictWithQuotient so each Minimize is a
// seeded re-refinement; the from-scratch arm restricts with plain Restrict,
// which carries no seed, and refines from the trivial partition every
// round.
func BenchmarkAblationChainedRestrict(b *testing.B) {
	const blocks, copies, steps = 48, 96, 32
	run := func(b *testing.B, incremental bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := redundantChain(blocks, copies)
			q, blk := m.Minimize()
			for s := 0; s < steps; s++ {
				// Announce away the far end of the chain.
				keep := bitset.New(m.NumWorlds())
				keep.AddRange(0, m.NumWorlds()-copies)
				if incremental {
					m = m.RestrictWithQuotient(keep, blk)
				} else {
					m = m.Restrict(keep)
				}
				q, blk = m.Minimize()
			}
			if q.NumWorlds() != blocks-steps {
				b.Fatalf("chain ended with a %d-world quotient, want %d", q.NumWorlds(), blocks-steps)
			}
		}
	}
	b.Run("incremental", func(b *testing.B) { run(b, true) })
	b.Run("fromscratch", func(b *testing.B) { run(b, false) })
}

// Ablation: the muddy round loop with a per-round common-knowledge check,
// each round rebuilding the reachability components of its restricted
// model. The sub-benchmark keeps its historical "/incremental" name so its
// trajectory rows continue.
func BenchmarkAblationMuddyRoundsQuotient(b *testing.B) {
	for _, n := range []int{10, 13} {
		b.Run(fmt.Sprintf("n=%d/incremental", n), func(b *testing.B) {
			opts := muddy.SimOptions{TrackCommon: true}
			muddySet := []int{0, 1, 2}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := muddy.SimulateOpts(n, muddySet, muddy.PublicAnnouncement, 5, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: the served muddy write path — a kripke.Chain on muddy:n taking
// the father's announcement and n−1 "nobody knows" announcements, the
// formulas of perfbench's ladder script. Every link's view runs the
// shrinkage gate, and a muddy model is its own quotient, so no link
// evaluates on a quotient.
func BenchmarkAblationMuddyChain(b *testing.B) {
	for _, n := range []int{8, 9, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p, err := muddy.New(n, nil)
			if err != nil {
				b.Fatal(err)
			}
			atoms := make([]string, n)
			knows := make([]string, n)
			for i := range atoms {
				atoms[i] = muddy.MuddyProp(i)
				knows[i] = fmt.Sprintf("~(K%d muddy%d | K%d ~muddy%d)", i, i, i, i)
			}
			father, err := logic.Parse(strings.Join(atoms, " | "))
			if err != nil {
				b.Fatal(err)
			}
			nobody, err := logic.Parse(strings.Join(knows, " & "))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := kripke.NewChain(p.Model(), -1)
				if err := c.Announce(father); err != nil {
					b.Fatal(err)
				}
				for r := 1; r < n; r++ {
					if err := c.Announce(nobody); err != nil {
						b.Fatal(err)
					}
				}
				if c.NumWorlds() != 1 {
					b.Fatalf("ladder ended on %d worlds, want 1", c.NumWorlds())
				}
			}
		})
	}
}

// Ablation: formula evaluation cost by modal depth on a fixed model.
func BenchmarkAblationModalDepth(b *testing.B) {
	m := chainModel(512)
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("E^%d", k), func(b *testing.B) {
			f := logic.EK(nil, k, logic.P("p"))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Eval(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: point-model construction cost as the system grows (runs x
// horizon), dominated by view hashing.
func BenchmarkAblationPointModelBuild(b *testing.B) {
	for _, size := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("runs=%d", size), func(b *testing.B) {
			rs := make([]*repro.Run, size)
			for i := range rs {
				r := repro.NewRun(fmt.Sprintf("r%d", i), 3, 12)
				r.Send(0, 1, repro.Time(i%4), repro.Time(i%4+1), "m")
				r.Send(1, 2, repro.Time(i%4+2), repro.Time(i%4+3), "n")
				rs[i] = r
			}
			sys := repro.MustSystem(rs...)
			interp := repro.Interpretation{"sent": repro.StablyTrue(repro.SentBy("m"))}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = sys.Model(repro.CompleteHistoryView, interp)
			}
		})
	}
}

// BenchmarkTemporalCommon evaluates C^ε, C^⋄ and C^T on a scaled R2–D2
// chain (64 runs of 41 points). Each is a greatest fixed point over the
// point model's run/time structure, and Model.Eval keeps no memo across
// calls, so every op runs the whole iteration.
func BenchmarkTemporalCommon(b *testing.B) {
	sys := core.R2D2Chain(32, 40)
	pm := sys.Model(repro.CompleteHistoryView, repro.Interpretation{
		"sent": repro.StablyTrue(repro.SentBy("m")),
	})
	for _, c := range []struct{ name, src string }{
		{"eps", "Ce[1] sent"},
		{"dia", "Cv sent"},
		{"T", "Ct[3] sent"},
	} {
		f := logic.MustParse(c.src)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pm.Eval(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: batch evaluation on the muddy-round workload — n per-child
// know-sets plus group queries against one shared model, on one evaluator
// whose memo spans the batch. The serial arm keeps its name so the row
// stays comparable with earlier snapshots.
func BenchmarkAblationBatchEval(b *testing.B) {
	const n = 13
	pz, err := muddy.New(n, []int{0, 1, 2})
	if err != nil {
		b.Fatal(err)
	}
	m := pz.Model()
	var fs []logic.Formula
	for i := 0; i < n; i++ {
		mi := logic.P(muddy.MuddyProp(i))
		fs = append(fs,
			logic.Disj(logic.K(logic.Agent(i), mi), logic.K(logic.Agent(i), logic.Neg(mi))))
	}
	fs = append(fs,
		logic.C(nil, logic.P(muddy.MProp)),
		logic.EK(nil, 3, logic.P(muddy.MProp)),
		logic.D(nil, logic.P(muddy.MuddyProp(0))),
	)
	// One untimed batch builds the partition tables.
	if _, err := m.EvalBatch(fs); err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.EvalBatch(fs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The kernel side of the tower workload's muddy:12 session: a fixed batch
// of nested K, E^1..E^8, D, D{a,b} and C on the all-muddy cube, evaluated
// with Model.EvalBatch. The bare model has no view memo, so every batch
// runs every kernel. Untimed batches first build the partition tables
// (each agent's K passes run on its class ids until knowIDsUses of them).
func BenchmarkMuddyTowerBatch(b *testing.B) {
	const n = 12
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	pz, err := muddy.New(n, all)
	if err != nil {
		b.Fatal(err)
	}
	m := pz.Model()
	var fs []logic.Formula
	for _, src := range []string{
		"K0 muddy0",
		"K3 ~muddy5",
		"K8 (muddy6 | muddy7)",
		"K1 K2 muddy3",
		"K4 K7 (muddy1 | muddy8)",
		"K5 K6 K11 ~muddy2",
		"K9 K10 K0 K2 muddy4",
		"E^1 muddy0",
		"E^2 ~muddy1",
		"E^3 (muddy2 | muddy3)",
		"E^4 muddy4",
		"E^5 (muddy5 | muddy11)",
		"E^6 ~muddy6",
		"E^7 muddy7",
		"E^8 (muddy8 | muddy9)",
		"D muddy10",
		"D{2,9} (muddy2 | muddy9)",
		"C (muddy0 | muddy1)",
	} {
		fs = append(fs, logic.MustParse(src))
	}
	for i := 0; i < 10; i++ {
		if _, err := m.EvalBatch(fs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.EvalBatch(fs); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the fault-injected scenario sweep's announcement ladder on a
// kripke.Chain (seeded quotient re-refinement threaded through each
// restriction). The system is sampled once — the benchmark measures the
// epistemic replay, not the simulation. The sub-benchmark keeps its
// historical "/incremental" name so its trajectory rows continue.
func BenchmarkAblationScenarioSweep(b *testing.B) {
	p := scenario.Params{Seed: 1}
	rg, err := scenario.RegimeByKey(p, "bounded")
	if err != nil {
		b.Fatal(err)
	}
	built, err := scenario.Build(p, rg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			steps, err := built.Ladder(p)
			if err != nil {
				b.Fatal(err)
			}
			if len(steps) == 0 {
				b.Fatal("empty ladder")
			}
		}
	})
}

// Ablation: the gossip revelation chain — tens of public call revelations
// over a hundreds-of-worlds deviation universe, batch-evaluating the
// verdict tower after every link of a kripke.Chain. Unlike the
// redundantChain workload, a deviation universe has a near-trivial
// quotient (synchronous perfect recall makes almost every world its own
// block), so the view's shrinkage gate mostly keeps the link model: this
// benchmark pins the cost of the chain on a workload the quotient cannot
// compress. Universe sampling and model construction run inside the loop,
// mirroring how gossipsim consumes a chain. The sub-benchmark keeps its
// historical "/incremental" name so its trajectory rows continue.
func BenchmarkAblationGossipChain(b *testing.B) {
	const calls = "ab.cd.ef.ac.be.df.ae.bf.cd.ab.ce.df.ad.bc.ef.af.bd.ce.ab.cf.de.ac.bd.ef"
	const agents, perLink = 6, 12
	actual, err := gossip.ParseSequence(calls, agents)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u := gossip.SampleDeviations(gossip.Any, agents, actual, perLink, 1)
			m := u.Model()
			res, err := m.RevealChain(actual, gossip.ChainOptions{Depth: 2})
			if err != nil {
				b.Fatal(err)
			}
			last := res.Steps[len(res.Steps)-1]
			if last.Worlds != 1 || !last.Common {
				b.Fatalf("chain should end on the actual world alone with C attained, got %+v", last)
			}
		}
	})
}

// Ablation: the full experiment suite end to end.
func BenchmarkAllExperiments(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reps, err := core.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reps {
			if !r.Pass {
				b.Fatalf("experiment %s failed", r.ID)
			}
		}
	}
}
