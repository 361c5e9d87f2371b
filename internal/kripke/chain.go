package kripke

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/logic"
)

// ErrEmptyAnnouncement is returned when an announcement holds at no world
// of the chain's current model: accepting it would leave a zero-world
// structure, so the chain refuses it and stays where it was.
var ErrEmptyAnnouncement = errors.New("kripke: announcement denotation is empty on the current model")

// chainMinWorlds is the QuotientForEval threshold of every chain link. A
// chain never skips the quotient on size alone: whether a link evaluates
// on the quotient is decided by the shrinkage gate of the view — the
// model's granularity — and nowhere else.
const chainMinWorlds = 1

// Chain replays a sequence of public announcements — the update that turns
// E^k into C, like the father's "m" in the muddy children or the delivered
// messages of the attack handshake — on the epistemic structure of a model.
// Each announcement restricts the current view to the worlds where it
// holds; Quotiented.Restrict threads the link's quotient block map through
// the restriction, so every link pays a seeded re-refinement instead of a
// from-scratch Minimize. A marked
// world (the actual world of the chain) is tracked through every
// restriction by rank.
//
// The chain works on the model's epistemic view: run-based temporal
// operators do not survive restriction, so announcements and queries using
// them fail with ErrTemporal. A Chain is not safe for concurrent use.
//
// Each link is a Quotiented view with its own denotation memo, so the
// contract of QuotientForEval applies: the model handed to NewChain must be
// fully constructed, Temporal hook included, and never mutated afterwards.
// Links are fresh submodels and never share memo entries.
type Chain struct {
	view   *Quotiented
	marked int // tracked world in the current model, -1 when unset or eliminated
}

// NewChain starts an announcement chain on the epistemic view of m
// (QuotientForEvalEpistemic), tracking world marked; -1 tracks no world.
func NewChain(m *Model, marked int) *Chain {
	return &Chain{view: m.QuotientForEvalEpistemic(chainMinWorlds), marked: marked}
}

// Announce publicly announces f: the chain moves to the submodel of the
// worlds where f holds. An f that holds nowhere is refused with an error
// wrapping ErrEmptyAnnouncement, leaving the chain unchanged.
func (c *Chain) Announce(f logic.Formula) error {
	keep, err := c.view.Eval(f)
	if err != nil {
		return err
	}
	if keep.IsEmpty() {
		return fmt.Errorf("%w: %s", ErrEmptyAnnouncement, f)
	}
	c.restrict(keep)
	return nil
}

// AnnounceSet is Announce for an announcement given directly as the set of
// current-model worlds it keeps, for announcements the model's language
// cannot express. keep is not retained.
func (c *Chain) AnnounceSet(keep *bitset.Set) error {
	if keep.IsEmpty() {
		return ErrEmptyAnnouncement
	}
	c.restrict(keep)
	return nil
}

func (c *Chain) restrict(keep *bitset.Set) {
	if c.marked >= 0 {
		if keep.Contains(c.marked) {
			c.marked = keep.Rank(c.marked)
		} else {
			c.marked = -1
		}
	}
	c.view = c.view.Restrict(keep, chainMinWorlds)
}

// Holds reports whether f holds at the marked world of the current model.
func (c *Chain) Holds(f logic.Formula) (bool, error) {
	if c.marked < 0 {
		return false, fmt.Errorf("kripke: chain has no marked world (unset, or eliminated by an announcement)")
	}
	return c.view.Holds(f, c.marked)
}

// EvalBatch evaluates a batch of formulas on the current link's model, with
// verdicts over its worlds; see Quotiented.EvalBatch.
func (c *Chain) EvalBatch(fs []logic.Formula) ([]*bitset.Set, error) {
	return c.view.EvalBatch(fs)
}

// EvalBatchCtx is EvalBatch with deadline and cancellation propagation; see
// Quotiented.EvalBatchCtx.
func (c *Chain) EvalBatchCtx(ctx context.Context, fs []logic.Formula) ([]*bitset.Set, error) {
	return c.view.EvalBatchCtx(ctx, fs)
}

// Marked returns the tracked world's index in the current model, or -1 if
// no world is marked or an announcement eliminated it.
func (c *Chain) Marked() int { return c.marked }

// NumWorlds returns the world count of the current (restricted) model.
func (c *Chain) NumWorlds() int { return c.view.NumWorlds() }

// QuotientWorlds returns the world count of the model formulas currently
// evaluate on (NumWorlds when the quotient gates kept the model).
func (c *Chain) QuotientWorlds() int { return c.view.QuotientWorlds() }

// View returns the current link's quotient-for-eval view. It is replaced,
// not mutated, by the next announcement.
func (c *Chain) View() *Quotiented { return c.view }
