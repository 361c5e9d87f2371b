package gossip

import (
	"fmt"
	"strings"
)

// Params configures an attainment search. The zero value searches nothing;
// withDefaults fills the documented defaults.
type Params struct {
	// Seed drives every sampled universe; equal seeds reproduce the table
	// byte for byte across repetitions.
	Seed int64
	// N is the agent count (default 4).
	N int
	// MaxCalls bounds the sequence lengths searched (default 8).
	MaxCalls int
	// Depth is the E-tower depth of the table columns (default 2:
	// expert, E^1, E^2, C).
	Depth int
	// Cap is the exhaustive-enumeration world cap; lengths whose
	// admissible sequence count exceeds it are sampled (default 262144,
	// which keeps CO and LNS for 4 agents exhaustive end to end and ANY
	// exhaustive through length 5).
	Cap int
	// Sample is the sampled-universe size beyond the cap (default 2048).
	Sample int
	// Convs lists the conventions to search (default all three).
	Convs []Convention
}

func (p Params) withDefaults() Params {
	if p.N == 0 {
		p.N = 4
	}
	if p.MaxCalls == 0 {
		p.MaxCalls = 8
	}
	if p.Depth == 0 {
		p.Depth = 2
	}
	if p.Cap == 0 {
		p.Cap = 262144
	}
	if p.Sample == 0 {
		p.Sample = 2048
	}
	if p.Convs == nil {
		p.Convs = Conventions()
	}
	return p
}

// Attain is one table cell: the minimal call count at which a knowledge
// level was observed for a convention.
type Attain struct {
	// Calls is the minimal sequence length attaining the level, or -1.
	Calls int
	// Sampled marks attainment first observed on a sampled universe — an
	// optimistic lower bound rather than an exact minimum.
	Sampled bool
	// Witness is the rendering of the first witnessing sequence.
	Witness string
}

// Row is one convention's attainment row.
type Row struct {
	Conv Convention
	// MaxLen is the last length with a nonempty universe (conventions
	// like CO and LNS terminate: past some length nothing is admissible).
	MaxLen int
	// Levels holds the cells in tower order: allexpert, E^1..E^Depth, C.
	Levels []Attain
}

// Table is a full attainment search result.
type Table struct {
	P    Params
	Rows []Row
}

// Search runs the protocol search: per convention, walk the sequence
// lengths upward, build each length's universe (exhaustive under the cap,
// seeded sampling beyond it), batch-evaluate the verdict tower over the
// whole universe at once, and record the first length at which each level
// has any witness. Attainment of E^k at world w needs every sequence any
// agent chain of length k confuses with w to end all-expert, so one
// EvalBatch over the universe answers "is the level attainable at this
// length, and by which sequence" for every level simultaneously.
func Search(p Params) (*Table, error) {
	p = p.withDefaults()
	if p.N < 2 || p.N > MaxAgents {
		return nil, fmt.Errorf("gossip: %d agents (want 2..%d)", p.N, MaxAgents)
	}
	t := &Table{P: p}
	fs := Tower(p.Depth)
	for _, conv := range p.Convs {
		row := Row{Conv: conv, Levels: make([]Attain, p.Depth+2)}
		for i := range row.Levels {
			row.Levels[i].Calls = -1
		}
		for length := 1; length <= p.MaxCalls; length++ {
			open := false
			for _, lv := range row.Levels {
				if lv.Calls < 0 {
					open = true
				}
			}
			if !open {
				break
			}
			u := BuildUniverse(conv, p.N, length, p.Cap, p.Sample, p.Seed)
			if len(u.Seqs) == 0 {
				break
			}
			row.MaxLen = length
			m := u.Model()
			sets, err := m.M.EvalBatch(fs)
			if err != nil {
				return nil, err
			}
			for li := range row.Levels {
				if row.Levels[li].Calls >= 0 {
					continue
				}
				if w, ok := sets[li].NextSet(0); ok {
					row.Levels[li] = Attain{Calls: length, Sampled: u.Sampled, Witness: m.M.Name(w)}
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// levelLabel names tower level i (0 = the fact, then E^k, then C).
func levelLabel(i, depth int) string {
	switch {
	case i == 0:
		return "expert"
	case i <= depth:
		return fmt.Sprintf("E^%d", i)
	default:
		return "C"
	}
}

func (a Attain) cell() string {
	if a.Calls < 0 {
		return "—"
	}
	s := fmt.Sprintf("%d", a.Calls)
	if a.Sampled {
		s += "*"
	}
	return s
}

// Render prints the attainment table, a witness block, and the legend —
// byte-identical for equal Params across repetitions.
func (t *Table) Render() string {
	var b strings.Builder
	p := t.P
	fmt.Fprintf(&b, "gossip attainment: seed=%d agents=%d maxcalls=%d cap=%d sample=%d\n",
		p.Seed, p.N, p.MaxCalls, p.Cap, p.Sample)
	fmt.Fprintf(&b, "%-11s", "convention")
	for i := 0; i < p.Depth+2; i++ {
		fmt.Fprintf(&b, " %-7s", levelLabel(i, p.Depth))
	}
	fmt.Fprintf(&b, " maxlen\n")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-11s", row.Conv.Key())
		for _, lv := range row.Levels {
			fmt.Fprintf(&b, " %-7s", lv.cell())
		}
		fmt.Fprintf(&b, " %d\n", row.MaxLen)
	}
	b.WriteString("witnesses:\n")
	for _, row := range t.Rows {
		for i, lv := range row.Levels {
			if lv.Calls < 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-4s %s=%s via %s\n", row.Conv.Key(), levelLabel(i, p.Depth), lv.cell(), lv.Witness)
		}
	}
	b.WriteString("legend: n = minimal calls to the level at termination; * = sampled universe (optimistic); — = unattained within maxcalls\n")
	return b.String()
}
