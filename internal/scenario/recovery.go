package scenario

import (
	"fmt"
	"strconv"

	"repro/internal/logic"
	"repro/internal/runs"
)

// Post-recovery knowledge: the crash regime's processors go down for a
// window and come back with their pre-crash memory intact (the engine
// keeps their history; deliveries INTO the window are lost). This file
// model-checks what that buys them: knowledge of the stable broadcast
// fact held at the moment of the crash must still be held at the first
// post-recovery point — under the complete-history view a processor's
// partition only refines over time, so stable facts are never unlearned —
// while a processor that went down ignorant re-learns the fact only if a
// delivery reaches it after the window, which the onset column makes
// visible check by check.

// RecoveryCheck is one crashed processor's knowledge around its crash
// window in one sampled run of the crash regime.
type RecoveryCheck struct {
	Run  string
	Proc int
	// Start and End delimit the crash window: the processor is down during
	// [Start, End] and back at End+1.
	Start, End runs.Time
	// KnewAtCrash reports K_p(sent) at the point the window opens.
	KnewAtCrash bool
	// KnowsOnRecovery reports K_p(sent) at the first post-recovery point
	// (End+1), the post-recovery witness point.
	KnowsOnRecovery bool
	// Onset is the first time K_p(sent) holds in this run, or runs.Lost if
	// the processor never learns the fact within the horizon.
	Onset runs.Time
	// Relearned marks a processor that went down not knowing the fact and
	// acquired it at or after the recovery point — knowledge rebuilt from
	// post-recovery deliveries, not from memory.
	Relearned bool
}

// PostRecoveryChecks builds the crash regime and model-checks K_p(sent)
// around every sampled crash window whose recovery point lies inside the
// horizon. One EvalBatch evaluates the per-processor knowledge sets over
// the whole point model; the checks are then read off world by world.
func PostRecoveryChecks(p Params) ([]RecoveryCheck, error) {
	p = p.withDefaults()
	rg, err := RegimeByKey(p, "crash")
	if err != nil {
		return nil, err
	}
	b, err := Build(p, rg)
	if err != nil {
		return nil, err
	}
	fs := make([]logic.Formula, p.Agents)
	for i := range fs {
		fs[i] = logic.K(logic.Agent(i), logic.P(SentProp))
	}
	sets, err := b.PM.EvalBatch(fs)
	if err != nil {
		return nil, fmt.Errorf("scenario crash recovery: %w", err)
	}
	var checks []RecoveryCheck
	for ri, r := range b.Sys.Runs {
		for proc := 0; proc < p.Agents; proc++ {
			start, okS := r.Meta["crash"+strconv.Itoa(proc)+".start"]
			end, okE := r.Meta["crash"+strconv.Itoa(proc)+".end"]
			if !okS || !okE {
				continue
			}
			rec := runs.Time(end) + 1
			if rec > r.Horizon {
				continue // the window never closes inside the horizon
			}
			c := RecoveryCheck{
				Run:   r.Name,
				Proc:  proc,
				Start: runs.Time(start),
				End:   runs.Time(end),
				Onset: runs.Lost,
			}
			know := sets[proc]
			for t := runs.Time(0); t <= r.Horizon; t++ {
				if know.Contains(b.PM.World(ri, t)) {
					c.Onset = t
					break
				}
			}
			c.KnewAtCrash = know.Contains(b.PM.World(ri, c.Start))
			c.KnowsOnRecovery = know.Contains(b.PM.World(ri, rec))
			c.Relearned = !c.KnewAtCrash && c.Onset != runs.Lost && c.Onset >= rec
			checks = append(checks, c)
		}
	}
	return checks, nil
}
