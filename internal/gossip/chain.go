package gossip

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/kripke"
)

// ChainOptions configures a revelation chain. The zero value evaluates
// the full tower at each link.
type ChainOptions struct {
	// Depth is the E-tower depth evaluated per link; 0 means n-1.
	Depth int
}

// ChainStep is one link of a revelation chain: the verdict tower after
// publicly revealing one more call of the actual sequence.
type ChainStep struct {
	// Link counts revealed calls, starting at 1.
	Link int
	// Call is the revealed call.
	Call Call
	// Worlds is the surviving world count after the revelation.
	Worlds int
	// QuotientWorlds is the size of the model the link's tower evaluated
	// on: the bisimulation quotient when it shrinks the link model enough
	// to pay, Worlds otherwise.
	QuotientWorlds int
	// EDepth is the consecutive prefix of true E^k(allexpert) levels at
	// the actual world, up to the tower depth.
	EDepth int
	// Common reports C(allexpert) at the actual world.
	Common bool
}

// ChainResult carries the per-link verdicts of a revelation chain.
type ChainResult struct {
	Steps []ChainStep
}

// RevealChain replays the actual sequence as a public announcement chain
// on the model: link t reveals "the t-th call was actual[t]", restricting
// the universe to the sequences that agree there, and batch-evaluates the
// verdict tower at the actual world. The gossip channel itself is private
// — no prefix of calls ever creates common knowledge in-model — so the
// chain shows exactly how much of the sequence must become public before
// each knowledge level arrives; once every call is revealed the model is a
// single world and C holds trivially.
func (m *Model) RevealChain(actual Sequence, opts ChainOptions) (*ChainResult, error) {
	if len(actual) != m.U.Len {
		return nil, fmt.Errorf("gossip: revealing a %d-call sequence on a length-%d universe", len(actual), m.U.Len)
	}
	w, ok := m.WorldOf(actual)
	if !ok {
		return nil, fmt.Errorf("gossip: sequence %s is not a world of the universe", actual)
	}
	depth := opts.Depth
	if depth == 0 {
		depth = m.U.N - 1
	}
	fs := Tower(depth)

	// alive maps current-model worlds back to universe sequence indices so
	// keep sets can be computed from the sequences directly.
	alive := make([]int, len(m.U.Seqs))
	for i := range alive {
		alive[i] = i
	}
	ch := kripke.NewChain(m.M, w)
	res := &ChainResult{}
	for t, c := range actual {
		keep := bitset.New(len(alive))
		next := alive[:0]
		for i, ui := range alive {
			if m.U.Seqs[ui][t] == c {
				keep.Add(i)
				next = append(next, ui)
			}
		}
		alive = next
		if err := ch.AnnounceSet(keep); err != nil {
			return nil, err
		}
		sets, err := ch.EvalBatch(fs)
		if err != nil {
			return nil, err
		}
		marked := ch.Marked()
		step := ChainStep{Link: t + 1, Call: c, Worlds: ch.NumWorlds(), QuotientWorlds: ch.QuotientWorlds()}
		for k := 1; k <= depth; k++ {
			if !sets[k].Contains(marked) {
				break
			}
			step.EDepth = k
		}
		step.Common = sets[depth+1].Contains(marked)
		res.Steps = append(res.Steps, step)
	}
	return res, nil
}
