package main

import (
	"fmt"
	"strings"

	"repro/internal/faults"
)

// opKind names the client operations a script issues.
type opKind int

const (
	opOpen opKind = iota
	opEval
	opAnnounce
	opClose
	numKinds
)

var kindNames = [numKinds]string{"open", "eval", "announce", "close"}

func (k opKind) String() string { return kindNames[k] }

// step is one client call of a script.
type step struct {
	Kind     opKind
	System   string   // open
	Seed     int64    // open
	Formula  string   // announce
	Formulas []string // eval
	Worlds   bool     // eval: ask for the denotation world lists
	// KnowSet marks a ladder eval of the per-child know-set formulas, which
	// the muddy invariant constrains; N is the ladder's child count.
	KnowSet bool
	N       int
}

// unit is the script drawn from one sub-stream: a whole session for
// ladder and churn, one eval on a shared warm session for tower.
type unit struct {
	Client, Index int
	Shared        int // tower: index of the warm session evaluated; -1 otherwise
	Steps         []step
}

// warmSpec describes a session opened during set-up and shared by every
// client, with what the tower generator needs to write formulas for it.
type warmSpec struct {
	System string
	Agents int
	Atoms  []string
	Runs   bool // runs-based: C^eps, C^dia and C^T apply at link 0
}

// workload is one traffic mix: the warm sessions set-up opens and the
// per-(client, unit) script generator.
type workload struct {
	Name  string
	Label uint64
	Warm  []warmSpec
	draw  func(s *faults.Stream, w *workload, seeds seedPlan, client, index int) unit
}

// The workloads stress different layers of one stack (README.md):
// ladder writes (Restrict, standby catch-up), tower reads the same session
// layer (EvalBatch, parse, JSON, session lock), churn builds models.
var workloads = []*workload{
	{
		Name:  "ladder",
		Label: 0x1add,
		draw:  drawLadder,
	},
	{
		Name:  "tower",
		Label: 0x7043,
		Warm: []warmSpec{
			{System: "muddy:12", Agents: 12, Atoms: muddyAtoms(12)},
			{System: "r2d2", Agents: 2, Atoms: []string{"sent"}, Runs: true},
			{System: "attack", Agents: 2, Atoms: []string{"del1", "del2", "del3", "del4"}, Runs: true},
			{System: "scenario:bounded", Agents: 4, Atoms: []string{"sent"}, Runs: true},
		},
		draw: drawTower,
	},
	{
		Name:  "churn",
		Label: 0xc4a2,
		draw:  drawChurn,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want ladder, tower or churn)", name)
}

// seedPlan hands out session seeds that are distinct within one run, so a
// (system, seed) pair names one logical session; the base moves with the
// run seed.
type seedPlan struct {
	base    int64
	clients int
}

func newSeedPlan(seed int64, w *workload, clients int) seedPlan {
	base := int64(faults.SubStream(seed, w.Label, 0x5eed).Uint64()>>36) << 24
	return seedPlan{base: base + 1, clients: clients}
}

func (p seedPlan) session(client, index int) int64 {
	return p.base + int64(index)*int64(p.clients) + int64(client)
}

// warm returns the seed of shared warm session i; it sits above every
// per-unit seed a run can reach.
func (p seedPlan) warm(i int) int64 { return p.base + 1<<23 + int64(i) }

// warmupBase offsets the unit indices of set-up warm-up traffic, so its
// session seeds never coincide with the timed ones.
const warmupBase = 1 << 20

// script returns unit index of client's script under seed.
func (w *workload) script(seed int64, seeds seedPlan, client, index int) unit {
	s := faults.SubStream(seed, w.Label, uint64(client), uint64(index))
	return w.draw(s, w, seeds, client, index)
}

// warmUnit is the open of warm session i, as unit -1-i of client 0.
func warmUnit(w *workload, seeds seedPlan, i int) unit {
	return unit{Client: 0, Index: -1 - i, Shared: -1, Steps: []step{
		{Kind: opOpen, System: w.Warm[i].System, Seed: seeds.warm(i)},
	}}
}

// scriptCache regenerates the step a record names. Records of one unit
// are consecutive, so one cached unit serves them all.
type scriptCache struct {
	w     *workload
	seed  int64
	seeds seedPlan
	have  bool
	u     unit
}

func (c *scriptCache) step(client, index, si int) *step {
	if !c.have || c.u.Client != client || c.u.Index != index {
		if index < 0 {
			c.u = warmUnit(c.w, c.seeds, -1-index)
		} else {
			c.u = c.w.script(c.seed, c.seeds, client, index)
		}
		c.have = true
	}
	return &c.u.Steps[si]
}

func muddyAtoms(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("muddy%d", i)
	}
	return out
}

// Muddy-children formulas (§2): the father's announcement, the round
// announcement that nobody knows their own state, and the per-child
// know-set formula.
func muddyFather(n int) string { return strings.Join(muddyAtoms(n), " | ") }

func muddyKnows(i int) string { return fmt.Sprintf("K%d muddy%d | K%d ~muddy%d", i, i, i, i) }

func muddyNobody(n int) string {
	terms := make([]string, n)
	for i := range terms {
		terms[i] = "~(" + muddyKnows(i) + ")"
	}
	return strings.Join(terms, " & ")
}

// drawLadder cycles N through 8, 9, 10 by unit index rather than drawing
// it: muddy:10 costs several times muddy:8, so a drawn mix would move a
// run's figures with its seed.
func drawLadder(s *faults.Stream, w *workload, seeds seedPlan, client, index int) unit {
	n := 8 + (index+client)%3
	u := unit{Client: client, Index: index, Shared: -1}
	knows := make([]string, n)
	for i := range knows {
		knows[i] = muddyKnows(i)
	}
	u.Steps = append(u.Steps, step{Kind: opOpen, System: fmt.Sprintf("muddy:%d", n), Seed: seeds.session(client, index)})
	for link := 0; link < n; link++ {
		f := muddyNobody(n)
		if link == 0 {
			f = muddyFather(n)
		}
		u.Steps = append(u.Steps,
			step{Kind: opAnnounce, Formula: f},
			step{Kind: opEval, Formulas: knows, KnowSet: true, N: n})
	}
	all := strings.Join(muddyAtoms(n), " & ")
	u.Steps = append(u.Steps,
		step{Kind: opEval, Formulas: []string{"E (" + muddyFather(n) + ")", "E^2 (" + all + ")"}},
		step{Kind: opClose})
	return u
}

// towerFormula draws one formula of the knowledge tower for a warm session.
func towerFormula(s *faults.Stream, ws warmSpec) string {
	atom := func() string {
		a := ws.Atoms[s.Intn(len(ws.Atoms))]
		switch s.Intn(4) {
		case 0:
			return "~" + a
		case 1:
			return "(" + a + " | " + ws.Atoms[s.Intn(len(ws.Atoms))] + ")"
		}
		return a
	}
	agent := func() int { return s.Intn(ws.Agents) }
	kinds := 5
	if ws.Runs {
		kinds = 8
	}
	switch s.Intn(kinds) {
	case 0:
		return fmt.Sprintf("K%d %s", agent(), atom())
	case 1:
		depth := 2 + s.Intn(3)
		var b strings.Builder
		for i := 0; i < depth; i++ {
			fmt.Fprintf(&b, "K%d ", agent())
		}
		return b.String() + atom()
	case 2:
		return fmt.Sprintf("E^%d %s", 1+s.Intn(8), atom())
	case 3:
		if s.Bool(0.5) {
			return "D " + atom()
		}
		a, b := agent(), agent()
		return fmt.Sprintf("D{%d,%d} %s", a, b, atom())
	case 4:
		return "C " + atom()
	case 5:
		return fmt.Sprintf("Ce[%d] %s", 1+s.Intn(3), atom())
	case 6:
		return "Cv " + atom()
	}
	return fmt.Sprintf("Ct[%d] %s", 2+s.Intn(5), atom())
}

func drawTower(s *faults.Stream, w *workload, seeds seedPlan, client, index int) unit {
	i := s.Intn(len(w.Warm))
	fs := make([]string, 6+s.Intn(13))
	for j := range fs {
		fs[j] = towerFormula(s, w.Warm[i])
	}
	return unit{Client: client, Index: index, Shared: i, Steps: []step{
		{Kind: opEval, Formulas: fs, Worlds: s.Intn(4) == 0},
	}}
}

// churnSpecs are the systems churn sessions open; every open builds its
// model from nothing.
var churnSpecs = []warmSpec{
	{System: "attack", Agents: 2, Atoms: []string{"del1", "del2"}},
	{System: "r2d2", Agents: 2, Atoms: []string{"sent"}},
	{System: "muddy:12", Agents: 12, Atoms: []string{"muddy0", "muddy5"}},
	{System: "scenario:sync-fixed", Agents: 4, Atoms: []string{"sent"}},
	{System: "scenario:bounded", Agents: 4, Atoms: []string{"sent"}},
	{System: "scenario:lossy", Agents: 4, Atoms: []string{"sent"}},
	{System: "scenario:dup", Agents: 4, Atoms: []string{"sent"}},
	{System: "scenario:drift-within", Agents: 4, Atoms: []string{"sent"}},
}

func drawChurn(s *faults.Stream, w *workload, seeds seedPlan, client, index int) unit {
	sp := churnSpecs[s.Intn(len(churnSpecs))]
	a := sp.Atoms[s.Intn(len(sp.Atoms))]
	return unit{Client: client, Index: index, Shared: -1, Steps: []step{
		{Kind: opOpen, System: sp.System, Seed: seeds.session(client, index)},
		{Kind: opEval, Formulas: []string{fmt.Sprintf("K%d %s", s.Intn(sp.Agents), a), "C " + a}},
		{Kind: opClose},
	}}
}
