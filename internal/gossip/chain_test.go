package gossip

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/logic"
)

func chainFixture(t *testing.T, conv Convention, seed int64) (*Model, Sequence) {
	t.Helper()
	actual, err := ParseSequence("ab.cd.ac.bd", 4)
	if err != nil {
		t.Fatal(err)
	}
	u := SampleDeviations(conv, 4, actual, 8, seed)
	if len(u.Seqs) < 8 {
		t.Fatalf("deviation universe has only %d worlds", len(u.Seqs))
	}
	return u.Model(), actual
}

// TestRevealChainParity pins the revelation chain — its links thread the
// quotient block map through every restriction — to a reference that
// rebuilds every link's quotient from scratch, across seeds and
// conventions: every per-link verdict must be identical.
func TestRevealChainParity(t *testing.T) {
	for _, conv := range Conventions() {
		for seed := int64(1); seed <= 3; seed++ {
			m, actual := chainFixture(t, conv, seed)
			got, err := m.RevealChain(actual, ChainOptions{})
			if err != nil {
				t.Fatal(err)
			}
			w, _ := m.WorldOf(actual)
			depth, tower := m.U.N-1, Tower(m.U.N-1)
			view := m.M.QuotientForEvalEpistemic(1)
			holds := func(f logic.Formula) bool {
				ok, err := view.Holds(f, w)
				if err != nil {
					t.Fatal(err)
				}
				return ok
			}
			var want []ChainStep
			for i, c := range actual {
				// Worlds are named by their call sequence.
				keep := bitset.New(view.NumWorlds())
				for v := 0; v < view.NumWorlds(); v++ {
					if strings.Split(view.Model().Name(v), ".")[i] == c.String() {
						keep.Add(v)
					}
				}
				w = keep.Rank(w)
				view = view.Model().Restrict(keep).QuotientForEvalEpistemic(1)
				step := ChainStep{Link: i + 1, Call: c, Worlds: view.NumWorlds(), QuotientWorlds: view.QuotientWorlds()}
				for k := 1; k <= depth && holds(tower[k]); k++ {
					step.EDepth = k
				}
				step.Common = holds(tower[depth+1])
				want = append(want, step)
			}
			if !reflect.DeepEqual(got.Steps, want) {
				t.Fatalf("%s seed %d: chain and from-scratch verdicts differ:\nchain:     %+v\nreference: %+v",
					conv.Key(), seed, got.Steps, want)
			}
		}
	}
}

// TestRevealChainWorkerDeterminism pins the chain result across
// concurrent callers: four goroutines replaying the chain on the same
// model at once must each return the result of a lone replay.
func TestRevealChainWorkerDeterminism(t *testing.T) {
	m, actual := chainFixture(t, LNS, 1)
	base, err := m.RevealChain(actual, ChainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*ChainResult, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = m.RevealChain(actual, ChainOptions{})
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !reflect.DeepEqual(base, got[g]) {
			t.Fatalf("caller %d: chain result differs", g)
		}
	}
}

// TestRevealChainConverges: once every call is public the model is the
// actual world alone and the tower holds trivially — and no earlier link
// may claim common knowledge, because a deviation universe always carries
// uncertainty until its last divergence is eliminated.
func TestRevealChainConverges(t *testing.T) {
	m, actual := chainFixture(t, CO, 1)
	res, err := m.RevealChain(actual, ChainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != len(actual) {
		t.Fatalf("chain has %d links, want %d", len(res.Steps), len(actual))
	}
	last := res.Steps[len(res.Steps)-1]
	if last.Worlds != 1 || last.QuotientWorlds != 1 || !last.Common {
		t.Fatalf("final link should be a single common-knowledge world, got %+v", last)
	}
	if last.EDepth != m.U.N-1 {
		t.Fatalf("final link E-depth %d, want the full tower %d", last.EDepth, m.U.N-1)
	}
	prev := len(m.U.Seqs)
	for _, st := range res.Steps {
		if st.Worlds > prev {
			t.Fatalf("link %d grew the model: %d -> %d worlds", st.Link, prev, st.Worlds)
		}
		prev = st.Worlds
	}
}

func TestRevealChainErrors(t *testing.T) {
	actual, err := ParseSequence("ab.cd.ac.bd", 4)
	if err != nil {
		t.Fatal(err)
	}
	other, err := ParseSequence("ba.dc.ca.db", 4)
	if err != nil {
		t.Fatal(err)
	}
	// A two-world universe built by hand, so membership is exact.
	u := &Universe{N: 4, Conv: CO, Len: 4, Seqs: []Sequence{actual, other}}
	m := u.Model()
	if _, err := m.RevealChain(actual[:2], ChainOptions{}); err == nil {
		t.Error("revealing a short sequence should fail")
	}
	missing, err := ParseSequence("ad.bc.ab.cd", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RevealChain(missing, ChainOptions{}); err == nil {
		t.Error("revealing a sequence outside the universe should fail")
	}
}

func TestTowerPanicsAndModelPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Tower(0) should panic")
			}
		}()
		Tower(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty-universe Model should panic")
			}
		}()
		(&Universe{N: 3}).Model()
	}()
}
