// Command knowctl is the knowd client CLI: it opens sessions against a
// running daemon, evaluates formula batches, drives announcement chains
// and inspects daemon state, all through the retrying internal/client
// (idempotency keys, backoff with full jitter, circuit breaker).
//
// The shared flag conventions apply: -seed pins the client's jitter and
// idempotency-key streams (equal seeds replay the identical request
// sequence).
//
// Usage:
//
//	knowctl systems
//	knowctl open muddy:3
//	knowctl -worlds eval s1 "K0 muddy1" "C (muddy0 | muddy1 | muddy2)"
//	knowctl announce s1 "muddy0 | muddy1 | muddy2"
//	knowctl sessions | knowctl stats | knowctl close s1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/client"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "knowctl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("knowctl", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:7433", "knowd base URL")
	seed := fs.Int64("seed", 1, "client seed: jitter and idempotency-key streams; also the session seed for open")
	worlds := fs.Bool("worlds", false, "print full denotation world lists with eval verdicts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no command (want systems | open | sessions | eval | announce | close | stats)")
	}
	c := client.New(client.Config{BaseURL: *addr, Seed: *seed})
	cmd, rest := fs.Arg(0), fs.Args()[1:]

	switch cmd {
	case "systems":
		infos, err := c.Systems()
		if err != nil {
			return err
		}
		for _, in := range infos {
			fmt.Fprintf(out, "%-22s %s\n", in.Spec, in.Desc)
		}
		return nil

	case "open":
		if len(rest) != 1 {
			return fmt.Errorf("usage: knowctl open <system-spec>")
		}
		st, err := c.Open(rest[0], *seed)
		if err != nil {
			return err
		}
		printState(out, st)
		return nil

	case "sessions":
		sts, err := c.Sessions()
		if err != nil {
			return err
		}
		for _, st := range sts {
			printState(out, st)
		}
		return nil

	case "eval":
		if len(rest) < 2 {
			return fmt.Errorf("usage: knowctl eval <session> <formula> [formula...]")
		}
		ev, err := c.Eval(rest[0], server.EvalRequest{
			Formulas: rest[1:],
			Worlds:   *worlds,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "session %s link %d\n", ev.Session, ev.Link)
		for _, v := range ev.Verdicts {
			at := "-"
			if v.Marked != nil {
				at = fmt.Sprintf("%v", *v.Marked)
			}
			fmt.Fprintf(out, "%-8d %-6s %s\n", v.Count, at, v.Formula)
			if *worlds {
				fmt.Fprintf(out, "         worlds %v\n", v.Worlds)
			}
		}
		return nil

	case "announce":
		if len(rest) != 2 {
			return fmt.Errorf("usage: knowctl announce <session> <formula>")
		}
		st, err := c.Announce(rest[0], rest[1])
		if err != nil {
			return err
		}
		printState(out, st)
		return nil

	case "close":
		if len(rest) != 1 {
			return fmt.Errorf("usage: knowctl close <session>")
		}
		if err := c.Close(rest[0]); err != nil {
			return err
		}
		fmt.Fprintf(out, "closed %s\n", rest[0])
		return nil

	case "stats":
		st, err := c.ServerStats()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "sessions %d opened %d closed %d evicted %d restored %d\n",
			st.Sessions, st.Opened, st.Closed, st.Evicted, st.Restored)
		fmt.Fprintf(out, "evals %d announces %d replays %d dedupe-hits %d shed %d panics %d\n",
			st.Evals, st.Announces, st.Replays, st.DedupeHits, st.Shed, st.Panics)
		return nil

	default:
		return fmt.Errorf("unknown command %q (want systems | open | sessions | eval | announce | close | stats)", cmd)
	}
}

func printState(out io.Writer, st server.SessionState) {
	fmt.Fprintf(out, "%-6s %-20s agents %-3d link %-3d worlds %-6d quotient %-6d marked %d\n",
		st.Session, st.System, st.Agents, st.Link, st.Worlds, st.Quotient, st.Marked)
}
