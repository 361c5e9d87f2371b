// Command gossipsim searches gossip-protocol call sequences for the
// knowledge levels they attain: n agents each hold a secret, calls merge
// secret sets, and the attainment table reports — per call convention
// (any, co, lns) — the minimal call count after which "everyone is an
// expert" holds, is mutually known to depth k (E^k), or is common
// knowledge at termination. Universes of candidate sequences are
// exhaustive below -cap and seeded samples beyond it, so the whole table
// is byte-identical for equal -seed across repetitions.
//
// -reveal additionally replays one convention's witness sequence as a
// public revelation chain: link t announces the t-th call, the verdict
// tower is batch-evaluated per link, and the printed rows show common
// knowledge arriving only as the private call sequence becomes public.
//
// Usage:
//
//	gossipsim -seed 1 -n 4
//	gossipsim -seed 1 -conv lns -reveal -perlink 8
//	gossipsim -seed 1 -conv co -reveal -calls ab.cd.ac.bd
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/gossip"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gossipsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gossipsim", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "search seed; equal seeds reproduce the table byte for byte")
	n := fs.Int("n", 4, "agents (2..12)")
	conv := fs.String("conv", "all", "convention to search: any, co, lns, or all")
	maxCalls := fs.Int("maxcalls", 8, "longest sequence length searched")
	depth := fs.Int("depth", 2, "E-tower depth of the table columns")
	capWorlds := fs.Int("cap", 262144, "exhaustive-universe world cap; longer lengths are sampled")
	sample := fs.Int("sample", 2048, "sampled-universe size beyond the cap")
	reveal := fs.Bool("reveal", false,
		"replay the witness sequence of -conv as a public revelation chain")
	calls := fs.String("calls", "",
		"sequence for -reveal (e.g. ab.cd.ac.bd); empty uses the expert witness from the table")
	perLink := fs.Int("perlink", 8, "sampled deviations per revealed call in the -reveal universe")
	if err := fs.Parse(args); err != nil {
		return err
	}

	convs := gossip.Conventions()
	if *conv != "all" {
		v, err := gossip.ParseConvention(*conv)
		if err != nil {
			return err
		}
		convs = []gossip.Convention{v}
	}
	if *reveal && *conv == "all" {
		return fmt.Errorf("-reveal needs a single -conv (any, co or lns)")
	}

	p := gossip.Params{
		Seed:     *seed,
		N:        *n,
		MaxCalls: *maxCalls,
		Depth:    *depth,
		Cap:      *capWorlds,
		Sample:   *sample,
		Convs:    convs,
	}
	table, err := gossip.Search(p)
	if err != nil {
		return err
	}
	fmt.Print(table.Render())

	if !*reveal {
		return nil
	}
	return replay(table, convs[0], *calls, *perLink)
}

// replay prints the revelation chain of one convention: the actual
// sequence (the table's expert witness unless -calls overrides it) on a
// deviation-sampled universe.
func replay(table *gossip.Table, conv gossip.Convention, calls string, perLink int) error {
	p := table.P
	var seq gossip.Sequence
	if calls != "" {
		var err error
		if seq, err = gossip.ParseSequence(calls, p.N); err != nil {
			return err
		}
	} else {
		for _, row := range table.Rows {
			if row.Conv == conv && row.Levels[0].Calls >= 0 {
				var err error
				if seq, err = gossip.ParseSequence(row.Levels[0].Witness, p.N); err != nil {
					return err
				}
			}
		}
		if seq == nil {
			return fmt.Errorf("convention %s attained no expert sequence to reveal; pass -calls", conv.Key())
		}
	}
	u := gossip.SampleDeviations(conv, p.N, seq, perLink, p.Seed)
	m := u.Model()
	res, err := m.RevealChain(seq, gossip.ChainOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("\nrevelation chain (conv %s, sequence %s, %d worlds, incremental restrictions):\n",
		conv.Key(), seq, len(u.Seqs))
	fmt.Printf("%-5s %-5s %-7s %-9s %-8s %-7s\n", "link", "call", "worlds", "quotient", "E-depth", "common")
	for _, st := range res.Steps {
		fmt.Printf("%-5d %-5s %-7d %-9d %-8d %-7v\n", st.Link, st.Call, st.Worlds, st.QuotientWorlds, st.EDepth, st.Common)
	}
	return nil
}
