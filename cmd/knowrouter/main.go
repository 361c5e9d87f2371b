// Command knowrouter fronts a fleet of knowd daemons: sessions are placed
// by weighted rendezvous-hashing their system spec, an active health
// checker ejects shards after consecutive probe failures and re-admits
// them through half-open probes, a dead shard's sessions fail over to a
// successor by replaying their persisted announcement sources (the
// announce-link CAS keeps the chain exactly-once across the handoff), and
// read-only requests hedge to a warm standby replica after a seeded
// latency threshold. Mutations are never hedged. See internal/cluster.
//
// knowrouter follows the repository's shared flag conventions: -seed pins
// every seeded draw (hedge-delay jitter, per-shard client backoff jitter,
// the default session seed). The -shards list uses id[*weight]=addr
// syntax, e.g.
//
//	knowrouter -addr 127.0.0.1:7500 \
//	    -shards n1=http://127.0.0.1:7501,n2*2=http://127.0.0.1:7502
//
// SIGTERM or SIGINT drains gracefully: intake stops answering (503 with a
// "draining" body, which upstream routers and checkers key off), in-flight
// requests finish, and shard-side sessions are left alive for the next
// router instance to adopt.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "knowrouter:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("knowrouter", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7500", "listen address")
	shardSpec := fs.String("shards", "", "shard fleet as comma-separated id[*weight]=addr entries (required)")
	seed := fs.Int64("seed", 1, "seed for hedge jitter, client jitter, and sessions opened without one")
	hedgeAfter := fs.Duration("hedge-after", 25*time.Millisecond,
		"base latency before hedging a read to the standby replica (<0 disables)")
	healthEvery := fs.Duration("health-every", time.Second, "health probe sweep period")
	failAfter := fs.Int("fail-after", 3, "consecutive failed probes before a shard is ejected")
	readmitAfter := fs.Duration("readmit-after", 5*time.Second,
		"cooldown before an ejected shard gets a half-open re-admission probe (also the data-path breaker's cooldown)")
	shardAttempts := fs.Int("shard-attempts", 0, "data-path attempts per shard call (0 uses the client default)")
	shardBaseDelay := fs.Duration("shard-base-delay", 0, "data-path retry base backoff (0 uses the client default)")
	shardMaxDelay := fs.Duration("shard-max-delay", 0, "data-path retry backoff cap (0 uses the client default)")
	dedupe := fs.Int("dedupe", 256, "idempotency keys remembered by the dedupe window")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown deadline")
	quiet := fs.Bool("quiet", false, "suppress operational logging")
	if err := fs.Parse(args); err != nil {
		return err
	}

	shards, err := cluster.ParseShards(*shardSpec)
	if err != nil {
		return err
	}
	logf := log.New(os.Stderr, "knowrouter: ", log.LstdFlags).Printf
	if *quiet {
		logf = nil
	}
	rt, err := cluster.New(cluster.Config{
		Shards:     shards,
		Seed:       *seed,
		HedgeAfter: *hedgeAfter,
		Health: cluster.HealthConfig{
			Every:        *healthEvery,
			FailAfter:    *failAfter,
			ReadmitAfter: *readmitAfter,
		},
		ShardMaxAttempts: *shardAttempts,
		ShardBaseDelay:   *shardBaseDelay,
		ShardMaxDelay:    *shardMaxDelay,
		DedupeWindow:     *dedupe,
		Logf:             logf,
	})
	if err != nil {
		return err
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "knowrouter: listening on %s (seed %d, %d shards)\n", l.Addr(), *seed, len(shards))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigc)

	served := make(chan error, 1)
	go func() { served <- rt.Serve(l) }()
	select {
	case err := <-served:
		return err
	case sig := <-sigc:
		fmt.Fprintf(out, "knowrouter: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-served; err != nil {
			return err
		}
		fmt.Fprintln(out, "knowrouter: drained cleanly")
		return nil
	}
}
