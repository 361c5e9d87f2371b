// Command knowload is the deterministic load generator for knowd: a
// seeded multi-worker client fleet driving a mixed workload — muddy
// announcement ladders, scenario-regime sessions, r2d2 and attack
// sessions, eval batches — against a live daemon. Every op is drawn from
// an order-independent sub-stream of the seed, so equal seeds replay the
// byte-identical op sequence regardless of fleet size or timing; -dry
// dumps that sequence without touching a server. Live runs emit a
// LOAD_REPORT.md with per-op-type log-bucketed latency quantiles merged
// across workers.
//
// The shared flag conventions apply: -seed pins the schedule and every
// client's jitter and idempotency-key streams.
//
// Usage:
//
//	knowload -seed 7 -workers 4 -sessions 8 -dry
//	knowload -addr http://127.0.0.1:7433 -seed 7 -workers 4 -sessions 8 -report LOAD_REPORT.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "knowload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("knowload", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:7433", "knowd base URL")
	seed := fs.Int64("seed", 1, "schedule and client seed: equal seeds replay the identical op sequence")
	workers := fs.Int("workers", 4, "fleet workers (concurrent clients)")
	sessions := fs.Int("sessions", 4, "sessions per worker")
	mix := fs.String("mix", "", "workload mix weights, e.g. muddy=4,scenario=2,r2d2=1,attack=1 (empty uses the default)")
	closeProb := fs.Float64("close", 0.2, "probability a session's script ends with a close")
	report := fs.String("report", "", "write the markdown run report to this path (empty prints it to stdout)")
	dry := fs.Bool("dry", false, "print the canonical op schedule and exit without contacting a server")
	maxAttempts := fs.Int("max-attempts", 30, "client retry attempts per op before it counts as failed")
	pace := fs.Duration("pace", 0,
		"per-worker sleep between ops: stretches wall clock for soak runs without changing the schedule")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	m, err := loadgen.ParseMix(*mix)
	if err != nil {
		return err
	}
	sc := loadgen.Build(loadgen.Config{
		Seed:      *seed,
		Workers:   *workers,
		Sessions:  *sessions,
		Mix:       m,
		CloseProb: *closeProb,
	})
	if *dry {
		return sc.Encode(out)
	}

	fmt.Fprintf(out, "knowload: %d ops over %d workers x %d sessions against %s (seed %d)\n",
		sc.NumOps(), sc.Cfg.Workers, sc.Cfg.Sessions, *addr, *seed)
	res, err := sc.Run(loadgen.RunConfig{
		NewClient: func(w int) *client.Client {
			return client.New(client.Config{
				BaseURL:     *addr,
				Seed:        *seed + int64(w)*7919,
				MaxAttempts: *maxAttempts,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    250 * time.Millisecond,
			})
		},
		Pace: *pace,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "knowload: done in %v, %d/%d ops failed\n", res.Elapsed, res.Errors, sc.NumOps())

	dst := out
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if err := loadgen.WriteReport(dst, sc, res); err != nil {
		return err
	}
	if *report != "" {
		fmt.Fprintf(out, "knowload: report written to %s\n", *report)
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d ops failed", res.Errors)
	}
	return nil
}
