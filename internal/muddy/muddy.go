// Package muddy implements the muddy children puzzle of Section 2 of
// Halpern & Moses, the paper's opening example of the difference between
// E^k-knowledge and common knowledge.
//
// The epistemic model is the standard one: with n children, the worlds are
// the 2^n muddiness assignments; child i cannot distinguish two worlds that
// differ only in its own bit (it sees every forehead but its own). The
// father's public announcement of m ("at least one of you is muddy") is a
// public-announcement update (model restriction); each round of
// simultaneous answers to "do you know whether you are muddy?" is likewise
// a public announcement of the full answer vector.
//
// Construction is columnar: the muddiness facts are periodic bit patterns
// written whole words at a time, and child i's view partition is installed
// directly as dense class ids (drop bit i of the world index), so building
// the 2^n-world model costs O(n·2^n/64) word writes plus one O(n·2^n)
// arithmetic pass — no per-world maps and no union-find. The actual world
// is tracked through announcements by its rank in the kept set rather than
// by name lookup.
//
// The package reproduces the puzzle's quantitative behaviour: with the
// announcement, the muddy children first answer "yes" in round k (k = number
// of muddy children) after k−1 rounds of unanimous "no"; without it — or
// with only private announcements when k ≥ 2 — they never do.
package muddy

import (
	"fmt"
	"math/bits"
	"strconv"
	"time"

	"repro/internal/bitset"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// MaxChildren is the largest supported puzzle size; the model has 2^n
// worlds, so n=20 is a million-world model.
const MaxChildren = 20

// Puzzle is a muddy children instance: the current epistemic model plus the
// actual world (the true muddiness assignment).
type Puzzle struct {
	n      int
	actual int // bitmask: bit i set iff child i is muddy
	// actualWorld is the index of the actual world in the current model,
	// maintained across announcements; -1 if an inconsistent update
	// eliminated it.
	actualWorld int
	model       *kripke.Model
}

// MuddyProp returns the ground-fact name for "child i is muddy".
func MuddyProp(i int) string { return "muddy" + strconv.Itoa(i) }

// MProp is the ground fact m: "at least one child is muddy".
const MProp = "m"

// muddyPattern returns the 64-bit word wi of the membership column of
// "child i is muddy" over worlds indexed by muddiness mask: bit w of the
// column is set iff w has bit i. For i < 6 the pattern repeats inside
// every word; for i >= 6 whole words are all-ones or all-zeros.
func muddyPattern(i, wi int) uint64 {
	if i >= 6 {
		if (wi>>(i-6))&1 != 0 {
			return ^uint64(0)
		}
		return 0
	}
	// Alternating runs of 2^i bits, starting with zeros.
	var p uint64
	switch i {
	case 0:
		p = 0xAAAAAAAAAAAAAAAA
	case 1:
		p = 0xCCCCCCCCCCCCCCCC
	case 2:
		p = 0xF0F0F0F0F0F0F0F0
	case 3:
		p = 0xFF00FF00FF00FF00
	case 4:
		p = 0xFFFF0000FFFF0000
	case 5:
		p = 0xFFFFFFFF00000000
	}
	return p
}

// New creates a puzzle with n children, the listed ones muddy.
func New(n int, muddy []int) (*Puzzle, error) {
	if n < 1 || n > MaxChildren {
		return nil, fmt.Errorf("muddy: n = %d out of supported range [1, %d]", n, MaxChildren)
	}
	actual := 0
	for _, c := range muddy {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("muddy: child %d out of range [0, %d)", c, n)
		}
		actual |= 1 << c
	}
	worlds := 1 << n
	b := kripke.NewBuilder(worlds, n)

	// m holds everywhere except the all-clean world 0.
	mcol := b.Column(MProp)
	mcol.Fill()
	mcol.Remove(0)

	// muddy_i is a periodic pattern over the mask-indexed worlds.
	for i := 0; i < n; i++ {
		col := b.Column(MuddyProp(i))
		cw := col.Words()
		for wi := range cw {
			cw[wi] = muddyPattern(i, wi) & col.WordMask(wi)
		}
	}

	// Child i's view: every forehead but its own, i.e. the world index
	// with bit i dropped — already a dense class id.
	for i := 0; i < n; i++ {
		ids := make([]int32, worlds)
		low := (1 << i) - 1
		for w := 0; w < worlds; w++ {
			ids[w] = int32((w>>(i+1))<<i | w&low)
		}
		b.SetPartition(i, ids, worlds>>1)
	}
	return &Puzzle{n: n, actual: actual, actualWorld: actual, model: b.Build()}, nil
}

// N returns the number of children.
func (p *Puzzle) N() int { return p.n }

// NumMuddy returns the number of muddy children k.
func (p *Puzzle) NumMuddy() int { return bits.OnesCount(uint(p.actual)) }

// Model returns the current epistemic model (shared, do not mutate).
func (p *Puzzle) Model() *kripke.Model { return p.model }

// ActualWorld returns the index of the actual world in the current model.
func (p *Puzzle) ActualWorld() (int, error) {
	if p.actualWorld < 0 {
		return 0, fmt.Errorf("muddy: actual world eliminated — inconsistent update")
	}
	return p.actualWorld, nil
}

// announce applies a truthful public announcement given as a world set,
// tracking the actual world through the restriction by rank. The muddy
// model is its own bisimulation quotient (every world has a distinct fact
// vector), so the round loop restricts the model directly instead of
// paying a kripke.Chain's quotient pass per round.
func (p *Puzzle) announce(keep *bitset.Set) {
	if p.actualWorld >= 0 {
		if keep.Contains(p.actualWorld) {
			p.actualWorld = keep.Rank(p.actualWorld)
		} else {
			p.actualWorld = -1
		}
	}
	p.model = p.model.Restrict(keep)
}

// HoldsNow reports whether f holds at the actual world of the current model.
func (p *Puzzle) HoldsNow(f logic.Formula) (bool, error) {
	w, err := p.ActualWorld()
	if err != nil {
		return false, err
	}
	return p.model.Holds(f, w)
}

// FatherAnnounces performs the father's public announcement of m. It fails
// if m is false at the actual world (the father only announces truths).
func (p *Puzzle) FatherAnnounces() error {
	if p.actual == 0 {
		return fmt.Errorf("muddy: father cannot truthfully announce m with no muddy children")
	}
	keep, err := p.model.Eval(logic.P(MProp))
	if err != nil {
		return err
	}
	p.announce(keep)
	return nil
}

// FatherTellsPrivately gives each child, privately and unobserved by the
// others, the information m — the Clark–Marshall copresence contrast of
// Section 3. The tellings are secret: no child knows whether any other
// child was told. The epistemic model therefore expands to worlds
// (muddiness, told-set): the told-set ranges over all subsets the father
// could truthfully have informed (every subset when m holds, only the empty
// set when it does not), and child i's view consists of the foreheads it
// sees plus its own told bit. It must be called on a fresh puzzle (before
// any announcement or round). Supported for n <= 8 (the model has up to
// 4^n worlds).
func (p *Puzzle) FatherTellsPrivately() error {
	if p.actual == 0 {
		return fmt.Errorf("muddy: father cannot truthfully tell m with no muddy children")
	}
	if p.n > 8 {
		return fmt.Errorf("muddy: private announcements supported for n <= 8, got %d", p.n)
	}
	if p.model.NumWorlds() != 1<<p.n {
		return fmt.Errorf("muddy: private announcement requires a fresh puzzle")
	}
	type world struct{ mask, told int }
	var ws []world
	actualIdx := -1
	allTold := (1 << p.n) - 1
	for mask := 0; mask < 1<<p.n; mask++ {
		for told := 0; told < 1<<p.n; told++ {
			if mask == 0 && told != 0 {
				continue // the father cannot truthfully tell m
			}
			if mask == p.actual && told == allTold {
				actualIdx = len(ws)
			}
			ws = append(ws, world{mask: mask, told: told})
		}
	}
	b := kripke.NewBuilder(len(ws), p.n)
	mcol := b.Column(MProp)
	muddyCols := make([]*bitset.Set, p.n)
	for i := range muddyCols {
		muddyCols[i] = b.Column(MuddyProp(i))
	}
	for w, ww := range ws {
		b.SetName(w, fmt.Sprintf("%d@%d", ww.mask, ww.told))
		if ww.mask != 0 {
			mcol.Add(w)
		}
		for i := 0; i < p.n; i++ {
			if ww.mask&(1<<i) != 0 {
				muddyCols[i].Add(w)
			}
		}
	}
	// Child i's view: the foreheads of the others plus its own told bit
	// (and the content m if told, which the world structure encodes: a
	// told child inhabits only m-worlds). The view key packs into n+1
	// bits, so the class ids come from a renumbering pass, no hashing.
	mark := make([]int32, 1<<(p.n+1))
	for i := 0; i < p.n; i++ {
		for k := range mark {
			mark[k] = -1
		}
		ids := make([]int32, len(ws))
		next := int32(0)
		for w, ww := range ws {
			key := (ww.mask&^(1<<i))<<1 | (ww.told>>i)&1
			if mark[key] < 0 {
				mark[key] = next
				next++
			}
			ids[w] = mark[key]
		}
		b.SetPartition(i, ids, int(next))
	}
	p.model = b.Build()
	p.actualWorld = actualIdx
	return nil
}

// knowsOwnState is the formula "child i knows whether it is muddy":
// K_i muddy_i ∨ K_i ¬muddy_i.
func knowsOwnState(i int) logic.Formula {
	mi := logic.P(MuddyProp(i))
	return logic.Disj(logic.K(logic.Agent(i), mi), logic.K(logic.Agent(i), logic.Neg(mi)))
}

// RoundResult records one round of simultaneous answers.
type RoundResult struct {
	// Yes[i] is true iff child i answered "yes, I can prove whether my
	// forehead is muddy".
	Yes []bool
	// EvalTime is the time spent evaluating the children's knowledge (the
	// n "do you know?" formulas) on the current model.
	EvalTime time.Duration
	// BuildTime is the time spent applying the public announcement of the
	// answer vector (restricting the model).
	BuildTime time.Duration
}

// AnyYes reports whether any child answered yes.
func (r RoundResult) AnyYes() bool {
	for _, y := range r.Yes {
		if y {
			return true
		}
	}
	return false
}

// Round asks every child simultaneously "can you prove whether you are
// muddy?", collects the answers at the actual world, and updates the model
// with the public announcement of the full answer vector.
func (p *Puzzle) Round() (RoundResult, error) {
	actual, err := p.ActualWorld()
	if err != nil {
		return RoundResult{}, err
	}
	evalStart := time.Now()
	// knowSets[i] = worlds where child i would answer yes. The n per-child
	// formulas are one batch against the shared round model, evaluated on
	// one evaluator whose memo spans the batch.
	fs := make([]logic.Formula, p.n)
	for i := 0; i < p.n; i++ {
		fs[i] = knowsOwnState(i)
	}
	knowSets, err := p.model.EvalBatch(fs)
	if err != nil {
		return RoundResult{}, err
	}
	res := RoundResult{Yes: make([]bool, p.n)}
	for i := 0; i < p.n; i++ {
		res.Yes[i] = knowSets[i].Contains(actual)
	}
	res.EvalTime = time.Since(evalStart)
	// Public announcement of the answer vector: keep the worlds whose
	// hypothetical answers match the actual ones.
	buildStart := time.Now()
	keep := bitset.NewFull(p.model.NumWorlds())
	for i := 0; i < p.n; i++ {
		if res.Yes[i] {
			keep.And(knowSets[i])
		} else {
			keep.AndNot(knowSets[i])
		}
	}
	p.announce(keep)
	res.BuildTime = time.Since(buildStart)
	return res, nil
}

// SimResult summarizes a full simulation.
type SimResult struct {
	N, K int
	// FirstYesRound is the 1-based round at which some child first
	// answered yes, or 0 if none did within the round budget.
	FirstYesRound int
	// YesAreMuddy reports whether the first yes-sayers are exactly the
	// muddy children.
	YesAreMuddy bool
	Rounds      []RoundResult
	// CommonM, present only when SimOptions.TrackCommon is set, records
	// whether C m held at the actual world after each round's announcement
	// (one entry per round). With the public announcement it is true in
	// every round — common knowledge, once announced, survives the chain.
	CommonM []bool
	// BuildTime is the time spent constructing the initial model and
	// applying the father's announcement (if any).
	BuildTime time.Duration
}

// AnnouncementMode selects how the father communicates m.
type AnnouncementMode int

// Announcement modes.
const (
	// NoAnnouncement: the father says nothing.
	NoAnnouncement AnnouncementMode = iota + 1
	// PublicAnnouncement: the father publicly announces m (the puzzle).
	PublicAnnouncement
	// PrivateAnnouncement: the father tells each child m privately.
	PrivateAnnouncement
)

// SimOptions tunes a simulation beyond the announcement mode.
type SimOptions struct {
	// TrackCommon evaluates C m at the actual world after every round and
	// records the verdicts in SimResult.CommonM. Each round's C
	// evaluation builds the reachability components of that round's model.
	TrackCommon bool
}

// Simulate runs the puzzle with n children, the listed ones muddy, under
// the given announcement mode, for at most maxRounds rounds.
func Simulate(n int, muddy []int, mode AnnouncementMode, maxRounds int) (SimResult, error) {
	return SimulateOpts(n, muddy, mode, maxRounds, SimOptions{})
}

// SimulateOpts is Simulate with explicit options.
func SimulateOpts(n int, muddy []int, mode AnnouncementMode, maxRounds int, opts SimOptions) (SimResult, error) {
	buildStart := time.Now()
	p, err := New(n, muddy)
	if err != nil {
		return SimResult{}, err
	}
	switch mode {
	case NoAnnouncement:
	case PublicAnnouncement:
		if err := p.FatherAnnounces(); err != nil {
			return SimResult{}, err
		}
	case PrivateAnnouncement:
		if err := p.FatherTellsPrivately(); err != nil {
			return SimResult{}, err
		}
	default:
		return SimResult{}, fmt.Errorf("muddy: unknown announcement mode %d", mode)
	}

	res := SimResult{N: n, K: p.NumMuddy(), BuildTime: time.Since(buildStart)}
	for round := 1; round <= maxRounds; round++ {
		r, err := p.Round()
		if err != nil {
			return res, err
		}
		res.Rounds = append(res.Rounds, r)
		if opts.TrackCommon {
			cm, err := p.CommonKnowledgeOfM()
			if err != nil {
				return res, err
			}
			res.CommonM = append(res.CommonM, cm)
		}
		if r.AnyYes() {
			res.FirstYesRound = round
			res.YesAreMuddy = true
			for i := 0; i < n; i++ {
				if r.Yes[i] != (p.actual&(1<<i) != 0) {
					res.YesAreMuddy = false
				}
			}
			return res, nil
		}
	}
	return res, nil
}

// ELevel returns the largest j <= maxK such that E^j m holds at the actual
// world of the current model (0 if even E^1 m fails).
func (p *Puzzle) ELevel(maxK int) (int, error) {
	actual, err := p.ActualWorld()
	if err != nil {
		return 0, err
	}
	sets, err := p.model.EKPrefix(nil, logic.P(MProp), maxK)
	if err != nil {
		return 0, err
	}
	level := 0
	for j, s := range sets {
		if s.Contains(actual) {
			level = j + 1
		} else {
			break
		}
	}
	return level, nil
}

// CommonKnowledgeOfM reports whether C m holds at the actual world.
func (p *Puzzle) CommonKnowledgeOfM() (bool, error) {
	return p.HoldsNow(logic.C(nil, logic.P(MProp)))
}
