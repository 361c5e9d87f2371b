package kripke

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/intern"
)

// Builder constructs a Model column-wise, the batch counterpart of the
// incremental SetTrue/Indistinguishable/SetName methods. It exists because
// announcement-style workloads are dominated by model construction, not
// evaluation: building a 2^n-world model one (world, fact) pair and one
// indistinguishability edge at a time costs a hash probe or a union-find
// operation per call, while the same model described columnar is a handful
// of map probes total.
//
//   - Ground facts are interned once and exposed as whole bitset columns
//     (Column); callers write membership bits — often whole 64-world words —
//     directly.
//   - Agent partitions are installed as dense class-id vectors
//     (SetPartition), or derived from arbitrary view keys in a single
//     interning pass (PartitionFromKeys). No union-find is involved, and
//     the ids feed the evaluator's partition tables as-is. A relation with
//     no natural columnar form is built edge by edge on the finished model
//     (Model.Indistinguishable). An agent given no partition stays
//     discrete: every world is its own class.
//   - World names are stored as a plain column (SetName, Names); the
//     name→world index is built lazily by the model on first lookup.
//
// A Builder is single-use: call Build once to obtain the finished model.
// It is not safe for concurrent use.
type Builder struct {
	m     *Model
	props *intern.Table
	cols  []*bitset.Set
	views *intern.Table // per-agent view-key interner, reset between agents
}

// NewBuilder starts a model with numWorlds worlds and numAgents agents,
// initially with all worlds distinguishable and no facts true.
func NewBuilder(numWorlds, numAgents int) *Builder {
	return &Builder{
		m:     NewModel(numWorlds, numAgents),
		props: intern.NewTable(),
	}
}

// NumWorlds returns the number of worlds of the model under construction.
func (b *Builder) NumWorlds() int { return b.m.numWorlds }

// NumAgents returns the number of agents of the model under construction.
func (b *Builder) NumAgents() int { return b.m.numAgents }

// Column returns the valuation column of prop — the set of worlds where it
// holds — creating an empty column on first sight of the name. The caller
// writes membership directly into the returned set (bit-wise with Add, or
// word-wise through Words for patterned facts); the column is live, so
// writes need no further installation call.
func (b *Builder) Column(prop string) *bitset.Set {
	id := b.props.Intern(prop)
	if int(id) == len(b.cols) {
		b.cols = append(b.cols, bitset.New(b.m.numWorlds))
	}
	return b.cols[id]
}

// SetName assigns a display/lookup name to a world. Unlike Model.SetName it
// never maintains a reverse index during construction; the model builds one
// lazily on the first WorldByName.
func (b *Builder) SetName(w int, name string) {
	b.m.ensureNames()
	b.m.names[w] = name
}

// Names installs the whole name column at once, adopting the slice. It must
// have length NumWorlds; empty strings mean unnamed.
func (b *Builder) Names(names []string) {
	if len(names) != b.m.numWorlds {
		panic(fmt.Sprintf("kripke: Names got %d names for %d worlds", len(names), b.m.numWorlds))
	}
	b.m.names = names
}

// SetPartition installs agent a's entire view partition as dense class ids:
// worlds v, w are indistinguishable to a iff ids[v] == ids[w]. ids must
// have length NumWorlds and values in [0, numClasses). The builder takes
// ownership of ids.
func (b *Builder) SetPartition(a int, ids []int32, numClasses int) {
	if len(ids) != b.m.numWorlds {
		panic(fmt.Sprintf("kripke: SetPartition got %d ids for %d worlds", len(ids), b.m.numWorlds))
	}
	for _, id := range ids {
		if id < 0 || int(id) >= numClasses {
			panic(fmt.Sprintf("kripke: SetPartition class id %d out of range [0,%d)", id, numClasses))
		}
	}
	b.m.setPartition(a, ids, numClasses)
}

// PartitionFromKeys installs agent a's view partition from an arbitrary
// view-key function: worlds with equal keys land in the same class. Keys
// are interned in one pass (one hash probe per world — the same cost a
// deduplicating map would pay just to find class representatives), and the
// resulting dense ids feed the partition tables directly.
func (b *Builder) PartitionFromKeys(a int, key func(w int) string) {
	if b.views == nil {
		b.views = intern.NewTable()
	} else {
		b.views.Reset()
	}
	ids := make([]int32, b.m.numWorlds)
	for w := range ids {
		ids[w] = b.views.Intern(key(w))
	}
	b.m.setPartition(a, ids, b.views.Len())
}

// Build finalizes and returns the model. The builder must not be used
// afterwards.
func (b *Builder) Build() *Model {
	m := b.m
	for id, col := range b.cols {
		m.setFactSet(b.props.Sym(int32(id)), col)
	}
	b.m = nil
	b.cols = nil
	return m
}
