package muddy

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/logic"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := New(25, nil); err == nil {
		t.Error("n=25 accepted")
	}
	if _, err := New(3, []int{5}); err == nil {
		t.Error("out-of-range child accepted")
	}
	p, err := New(3, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumMuddy() != 2 {
		t.Errorf("NumMuddy = %d, want 2", p.NumMuddy())
	}
	if p.Model().NumWorlds() != 8 {
		t.Errorf("NumWorlds = %d, want 8", p.Model().NumWorlds())
	}
}

func TestChildSeesOthersNotSelf(t *testing.T) {
	p, err := New(3, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Child 0 knows child 1 is muddy and child 2 is clean, but not its own
	// state.
	checks := []struct {
		src  string
		want bool
	}{
		{"K0 muddy1", true},
		{"K0 ~muddy2", true},
		{"K0 muddy0", false},
		{"K0 ~muddy0", false},
		{"K2 muddy0", true},
		{"K2 muddy1", true},
	}
	for _, c := range checks {
		got, err := p.HoldsNow(logic.MustParse(c.src))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestELevelBeforeAnnouncement(t *testing.T) {
	// Section 2/3: with k muddy children, E^{k-1} m holds before the
	// father speaks and E^k m does not.
	for k := 1; k <= 5; k++ {
		n := k + 2
		muddySet := make([]int, k)
		for i := range muddySet {
			muddySet[i] = i
		}
		p, err := New(n, muddySet)
		if err != nil {
			t.Fatal(err)
		}
		level, err := p.ELevel(k + 2)
		if err != nil {
			t.Fatal(err)
		}
		if level != k-1 {
			t.Errorf("k=%d: E-level before announcement = %d, want %d", k, level, k-1)
		}
	}
}

func TestAnnouncementCreatesCommonKnowledge(t *testing.T) {
	p, err := New(4, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := p.CommonKnowledgeOfM()
	if err != nil {
		t.Fatal(err)
	}
	if ck {
		t.Error("C m should not hold before the announcement")
	}
	if err := p.FatherAnnounces(); err != nil {
		t.Fatal(err)
	}
	ck, err = p.CommonKnowledgeOfM()
	if err != nil {
		t.Fatal(err)
	}
	if !ck {
		t.Error("C m should hold after the public announcement")
	}
}

func TestPrivateAnnouncementNoCommonKnowledge(t *testing.T) {
	// k >= 2: every child already knows m, so private announcements change
	// nothing; in particular C m still fails.
	p, err := New(4, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FatherTellsPrivately(); err != nil {
		t.Fatal(err)
	}
	ck, err := p.CommonKnowledgeOfM()
	if err != nil {
		t.Fatal(err)
	}
	if ck {
		t.Error("C m should not hold after private announcements")
	}
	// E m does hold (it held already).
	em, err := p.HoldsNow(logic.MustParse("E m"))
	if err != nil {
		t.Fatal(err)
	}
	if !em {
		t.Error("E m should hold with k=2")
	}
}

func TestPrivateAnnouncementHelpsSingleMuddyChild(t *testing.T) {
	// k = 1: the muddy child sees no mud, so being told m privately lets
	// it deduce its own muddiness — but the group still lacks C m.
	p, err := New(3, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FatherTellsPrivately(); err != nil {
		t.Fatal(err)
	}
	knows, err := p.HoldsNow(logic.MustParse("K1 muddy1"))
	if err != nil {
		t.Fatal(err)
	}
	if !knows {
		t.Error("the single muddy child should deduce its state from a private m")
	}
	ck, _ := p.CommonKnowledgeOfM()
	if ck {
		t.Error("C m should still fail after private announcements")
	}
}

func TestSimulateClassicBehaviour(t *testing.T) {
	// The puzzle's table: with the announcement, first "yes" in round k,
	// and the yes-sayers are exactly the muddy children.
	for _, tc := range []struct{ n, k int }{
		{3, 1}, {3, 2}, {3, 3}, {4, 2}, {5, 3}, {6, 4}, {7, 2},
	} {
		muddySet := make([]int, tc.k)
		for i := range muddySet {
			muddySet[i] = i
		}
		res, err := Simulate(tc.n, muddySet, PublicAnnouncement, tc.n+2)
		if err != nil {
			t.Fatal(err)
		}
		if res.FirstYesRound != tc.k {
			t.Errorf("n=%d k=%d: first yes in round %d, want %d", tc.n, tc.k, res.FirstYesRound, tc.k)
		}
		if !res.YesAreMuddy {
			t.Errorf("n=%d k=%d: yes-sayers are not exactly the muddy children", tc.n, tc.k)
		}
		// All earlier rounds are unanimous "no".
		for r := 0; r < tc.k-1; r++ {
			if res.Rounds[r].AnyYes() {
				t.Errorf("n=%d k=%d: unexpected yes in round %d", tc.n, tc.k, r+1)
			}
		}
	}
}

func TestSimulateWithoutAnnouncementNeverTerminates(t *testing.T) {
	// The subtle half of Section 2: without the father's announcement the
	// children never learn anything, even after many rounds.
	for _, tc := range []struct{ n, k int }{
		{3, 1}, {3, 2}, {4, 3}, {5, 2},
	} {
		muddySet := make([]int, tc.k)
		for i := range muddySet {
			muddySet[i] = i
		}
		res, err := Simulate(tc.n, muddySet, NoAnnouncement, tc.n+4)
		if err != nil {
			t.Fatal(err)
		}
		if res.FirstYesRound != 0 {
			t.Errorf("n=%d k=%d: yes in round %d without announcement", tc.n, tc.k, res.FirstYesRound)
		}
	}
}

func TestSimulatePrivateAnnouncementStallsForKAtLeast2(t *testing.T) {
	res, err := Simulate(4, []int{0, 1, 2}, PrivateAnnouncement, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstYesRound != 0 {
		t.Errorf("private announcement with k=3 should not help, yes in round %d", res.FirstYesRound)
	}
	// With k = 1 the muddy child answers immediately.
	res, err = Simulate(4, []int{2}, PrivateAnnouncement, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstYesRound != 1 {
		t.Errorf("private announcement with k=1: yes in round %d, want 1", res.FirstYesRound)
	}
}

func TestCleanChildrenLearnInRoundKPlus1(t *testing.T) {
	// After the muddy children say yes in round k, the clean children know
	// their own state in round k+1.
	p, err := New(4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FatherAnnounces(); err != nil {
		t.Fatal(err)
	}
	var last RoundResult
	for round := 1; round <= 3; round++ {
		last, err = p.Round()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if !last.Yes[i] {
			t.Errorf("child %d should know its state in round k+1", i)
		}
	}
}

func TestAnnounceFalseFactRejected(t *testing.T) {
	p, err := New(3, nil) // nobody muddy
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FatherAnnounces(); err == nil {
		t.Error("announcing a false m should fail")
	}
	if err := p.FatherTellsPrivately(); err == nil {
		t.Error("privately telling a false m should fail")
	}
}

// TestQuickSimulationMatchesTheory: for random n and muddy sets, the first
// yes round equals k and yes-sayers are the muddy children.
func TestQuickSimulationMatchesTheory(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6) // 2..7
		k := 1 + rng.Intn(n)
		perm := rng.Perm(n)
		muddySet := perm[:k]
		res, err := Simulate(n, muddySet, PublicAnnouncement, n+2)
		if err != nil {
			t.Log(err)
			return false
		}
		return res.FirstYesRound == k && res.YesAreMuddy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSimulate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(8, []int{0, 1, 2, 3}, PublicAnnouncement, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildModel(b *testing.B) {
	muddySet := []int{0, 1, 2, 3, 4}
	for i := 0; i < b.N; i++ {
		if _, err := New(12, muddySet); err != nil {
			b.Fatal(err)
		}
	}
}

// scratchRounds is the reference round loop of SimulateOpts under the
// public announcement: the model is copied after the father's announcement
// and after every round, and every verdict is asked of the puzzle one call
// at a time. It returns each round's answers and the C m verdict after it,
// up to the first yes.
func scratchRounds(t *testing.T, n int, muddy []int, maxRounds int) (yes [][]bool, commonM []bool) {
	t.Helper()
	p, err := New(n, muddy)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() {
		p.model = p.model.Restrict(bitset.NewFull(p.model.NumWorlds()))
	}
	if err := p.FatherAnnounces(); err != nil {
		t.Fatal(err)
	}
	fresh()
	for round := 1; round <= maxRounds; round++ {
		r, err := p.Round()
		if err != nil {
			t.Fatal(err)
		}
		fresh()
		cm, err := p.CommonKnowledgeOfM()
		if err != nil {
			t.Fatal(err)
		}
		yes, commonM = append(yes, r.Yes), append(commonM, cm)
		if r.AnyYes() {
			break
		}
	}
	return yes, commonM
}

// TestSimulateOptsIncrementalMatchesScratch pins the round loop of
// SimulateOpts, with its batched per-child evaluation, to the step-by-step
// reference: answers, common-knowledge verdicts and termination round
// alike.
func TestSimulateOptsIncrementalMatchesScratch(t *testing.T) {
	cases := []struct {
		n     int
		muddy []int
	}{
		{3, []int{1}},
		{5, []int{0, 2}},
		{6, []int{0, 1, 2, 3}},
		{8, []int{3, 4, 5}},
	}
	for _, tc := range cases {
		res, err := SimulateOpts(tc.n, tc.muddy, PublicAnnouncement, tc.n+2, SimOptions{TrackCommon: true})
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		var yes [][]bool
		for _, r := range res.Rounds {
			yes = append(yes, r.Yes)
		}
		wantYes, wantCommon := scratchRounds(t, tc.n, tc.muddy, tc.n+2)
		if !reflect.DeepEqual(yes, wantYes) {
			t.Fatalf("n=%d: answers %v, from-scratch %v", tc.n, yes, wantYes)
		}
		if !reflect.DeepEqual(res.CommonM, wantCommon) {
			t.Fatalf("n=%d: common-knowledge track %v, from-scratch %v", tc.n, res.CommonM, wantCommon)
		}
		if res.FirstYesRound != len(wantYes) {
			t.Fatalf("n=%d: first yes in round %d, from-scratch %d", tc.n, res.FirstYesRound, len(wantYes))
		}
	}
}

// TestTrackCommonAfterPublicAnnouncement pins the paper's observation that
// the father's public announcement creates common knowledge of m, and that
// the round announcements — which only remove worlds — never destroy it.
func TestTrackCommonAfterPublicAnnouncement(t *testing.T) {
	res, err := SimulateOpts(6, []int{0, 1, 2}, PublicAnnouncement, 8,
		SimOptions{TrackCommon: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CommonM) != len(res.Rounds) {
		t.Fatalf("CommonM has %d entries for %d rounds", len(res.CommonM), len(res.Rounds))
	}
	for i, cm := range res.CommonM {
		if !cm {
			t.Errorf("round %d: C m lost after the public announcement", i+1)
		}
	}
}
