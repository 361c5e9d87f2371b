package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// session is one client's warm announcement chain over a loaded system.
// The chain lives in ld.chain: every announcement pays a seeded quotient
// re-refinement instead of a from-scratch Minimize, which is exactly what
// makes keeping sessions warm worthwhile.
type session struct {
	id   string
	seed int64

	// mu serializes all compute on the session: eval batches read the
	// current link's model and announcements replace it, so chain links can
	// never interleave even when a client (or a duplicating network) races
	// requests against one session.
	mu sync.Mutex

	ld        *loaded
	announced []string // announcement sources in chain order

	// lastUsed is the UnixNano time of the last eval or announce. It is
	// written under mu but read by the idle janitor, which holds only the
	// server's lock, so it is atomic.
	lastUsed atomic.Int64
}

// touch records use for idle eviction.
func (ss *session) touch(now time.Time) { ss.lastUsed.Store(now.UnixNano()) }

// idleSince reports how long the session has gone unused at now.
func (ss *session) idleSince(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, ss.lastUsed.Load()))
}

// evalBatch evaluates fs over the session's current model and reports the
// view memo's lookups for the batch. At link zero of a runs-based system
// the point model's view serves the batch, so temporal formulas (C^eps,
// C^dia, C^T, ...) work against the unrestricted structure; after the
// first announcement the chain view has moved off the original model and
// only the epistemic fragment is meaningful — temporal operators then fail
// with kripke.ErrTemporal, which the handler reports as 422 rather than
// recomputing a stale answer.
//
// Both views memoize denotations for their lifetime, so a warm session
// answers a repeated knowledge tower from the memo. The batch runs on one
// evaluator: the daemon's concurrency comes from concurrent requests. The
// caller holds mu, so no other batch runs on the
// view and the memo delta is this batch's.
func (ss *session) evalBatch(ctx context.Context, fs []logic.Formula) ([]*bitset.Set, kripke.MemoStats, error) {
	v := ss.ld.chain.View()
	if len(ss.announced) == 0 && ss.ld.link0 != nil {
		v = ss.ld.link0
	}
	before := v.MemoStats()
	sets, err := v.EvalBatchCtx(ctx, fs)
	after := v.MemoStats()
	return sets, kripke.MemoStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}, err
}

// announce publicly announces f on the session's chain and appends its
// source to the chain record so the session can be persisted and
// replayed. An f that holds nowhere is refused (kripke.ErrEmptyAnnouncement),
// which the handler reports as 422.
func (ss *session) announce(src string, f logic.Formula) error {
	if err := ss.ld.chain.Announce(f); err != nil {
		return err
	}
	ss.announced = append(ss.announced, src)
	return nil
}

// replay rebuilds a persisted chain by announcing each recorded source in
// order against a freshly loaded system.
func (ss *session) replay(sources []string) error {
	for _, src := range sources {
		f, err := logic.Parse(src)
		if err != nil {
			return fmt.Errorf("replaying %q: %w", src, err)
		}
		if err := ss.announce(src, f); err != nil {
			return fmt.Errorf("replaying %q: %w", src, err)
		}
	}
	return nil
}
