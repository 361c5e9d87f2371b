package gossip

import (
	"strings"
	"testing"
)

// goldenTable pins the full seed-1 attainment table byte for byte. The CI
// smoke step greps individual rows of the same render and the determinism
// test below re-derives it in repeated searches, so any drift in
// sampling, evaluation order or rendering fails loudly here first.
//
// The exhaustive cells carry the family's separations: expert at 4 calls is
// the classic 2n-4 minimum for every convention; LNS reaches E^2 one call
// before CO; and both terminating conventions attain C at 6 calls — at a
// forced termination length every admissible world ends all-expert, so
// synchrony alone makes the fact common knowledge, while the non-terminating
// ANY convention shows no exhaustive attainment beyond expert (its starred
// cells are sampled, optimistic lower bounds).
const goldenTable = "gossip attainment: seed=1 agents=4 maxcalls=8 cap=262144 sample=2048\n" +
	"convention  expert  E^1     E^2     C       maxlen\n" +
	"any         4       6*      6*      6*      6\n" +
	"co          4       5       6       6       6\n" +
	"lns         4       5       5       6       6\n" +
	"witnesses:\n" +
	"  any  expert=4 via ab.cd.ac.bd\n" +
	"  any  E^1=6* via ba.ad.cd.bd.bc.ad\n" +
	"  any  E^2=6* via ba.cd.ac.ac.cb.bd\n" +
	"  any  C=6* via ad.bc.da.ba.cd.ac\n" +
	"  co   expert=4 via ab.cd.ac.bd\n" +
	"  co   E^1=5 via ab.cd.ac.ad.bc\n" +
	"  co   E^2=6 via ab.ac.ad.bc.bd.cd\n" +
	"  co   C=6 via ab.ac.ad.bc.bd.cd\n" +
	"  lns  expert=4 via ab.cd.ac.bd\n" +
	"  lns  E^1=5 via ab.cd.ac.bc.da\n" +
	"  lns  E^2=5 via ab.cd.ac.bc.db\n" +
	"  lns  C=6 via ab.ac.ad.bc.bd.cd\n" +
	"legend: n = minimal calls to the level at termination; * = sampled universe (optimistic); — = unattained within maxcalls\n"

func TestSearchGoldenTable(t *testing.T) {
	table, err := Search(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Render(); got != goldenTable {
		t.Fatalf("table drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, goldenTable)
	}
}

// TestSearchWorkerDeterminism re-derives the golden table in repeated
// searches — the search must be byte-identical from run to run.
func TestSearchWorkerDeterminism(t *testing.T) {
	for rep := 0; rep < 2; rep++ {
		table, err := Search(Params{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := table.Render(); got != goldenTable {
			t.Fatalf("repetition %d: table differs from golden:\n%s", rep, got)
		}
	}
}

// TestSearchSeparations asserts the family's qualitative claims directly on
// the cells, independent of rendering.
func TestSearchSeparations(t *testing.T) {
	table, err := Search(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Row{}
	for _, row := range table.Rows {
		rows[row.Conv.Key()] = row
	}
	for key, row := range rows {
		if got := row.Levels[0]; got.Calls != 4 || got.Sampled {
			t.Errorf("%s: expert attained at %d (sampled=%v), want the exact 2n-4 = 4", key, got.Calls, got.Sampled)
		}
	}
	// Terminating conventions attain common knowledge exhaustively at their
	// forced-termination length; ANY only ever shows sampled attainment.
	for _, key := range []string{"co", "lns"} {
		c := rows[key].Levels[3]
		if c.Calls != 6 || c.Sampled {
			t.Errorf("%s: C attained at %d (sampled=%v), want exact 6", key, c.Calls, c.Sampled)
		}
		if rows[key].MaxLen != 6 {
			t.Errorf("%s: maxlen %d, want 6", key, rows[key].MaxLen)
		}
	}
	for li, lv := range rows["any"].Levels[1:] {
		if lv.Calls >= 0 && !lv.Sampled {
			t.Errorf("any: level %d claims exhaustive attainment at %d calls", li+1, lv.Calls)
		}
	}
	if e2co, e2lns := rows["co"].Levels[2], rows["lns"].Levels[2]; e2lns.Calls >= e2co.Calls {
		t.Errorf("LNS E^2 at %d should precede CO E^2 at %d", e2lns.Calls, e2co.Calls)
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := Search(Params{Seed: 1, N: 1}); err == nil {
		t.Error("Search should reject 1 agent")
	}
	if _, err := Search(Params{Seed: 1, N: MaxAgents + 1}); err == nil {
		t.Error("Search should reject too many agents")
	}
}

// TestSearchUnattained pins the em-dash cell: capping the search below the
// first attainment length leaves every level beyond expert open.
func TestSearchUnattained(t *testing.T) {
	table, err := Search(Params{Seed: 1, MaxCalls: 4, Convs: []Convention{CO}})
	if err != nil {
		t.Fatal(err)
	}
	row := table.Rows[0]
	if row.Levels[0].Calls != 4 {
		t.Fatalf("expert at %d, want 4", row.Levels[0].Calls)
	}
	for li, lv := range row.Levels[1:] {
		if lv.Calls != -1 {
			t.Errorf("level %d attained at %d within 4 calls", li+1, lv.Calls)
		}
	}
	if !strings.Contains(table.Render(), "—") {
		t.Error("render of an unattained level should show the em dash")
	}
}
