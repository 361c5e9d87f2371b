package chaosproxy_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chaosproxy"
	"repro/internal/client"
	"repro/internal/faults"
	"repro/internal/server"
)

// workloadResult collects everything a knowd workload produces that must
// be invariant under injected faults.
type workloadResult struct {
	States   []server.SessionState
	Verdicts []server.EvalResponse
}

// runWorkload drives one fixed muddy + R2-D2 workload through a client:
// session opens, eval batches at several chain links, announcements. All
// calls must succeed (the retrying client is expected to converge even
// when baseURL points at a chaos proxy).
func runWorkload(t *testing.T, c *client.Client) workloadResult {
	t.Helper()
	var res workloadResult
	record := func(st server.SessionState, err error) string {
		t.Helper()
		if err != nil {
			t.Fatalf("workload call failed: %v", err)
		}
		res.States = append(res.States, st)
		return st.Session
	}
	eval := func(sid string, formulas ...string) {
		t.Helper()
		ev, err := c.Eval(sid, server.EvalRequest{Formulas: formulas, Worlds: true})
		if err != nil {
			t.Fatalf("eval failed: %v", err)
		}
		res.Verdicts = append(res.Verdicts, ev)
	}

	muddySid := record(c.Open("muddy:3", 0))
	eval(muddySid, "K0 muddy1", "C (muddy0 | muddy1 | muddy2)")
	record(c.Announce(muddySid, "muddy0 | muddy1 | muddy2"))
	nobody := "~(K0 muddy0 | K0 ~muddy0) & ~(K1 muddy1 | K1 ~muddy1) & ~(K2 muddy2 | K2 ~muddy2)"
	record(c.Announce(muddySid, nobody))
	record(c.Announce(muddySid, nobody))
	eval(muddySid, "K0 muddy0 & K1 muddy1 & K2 muddy2", "C (muddy0 & muddy1 & muddy2)")

	r2d2Sid := record(c.Open("r2d2", 0))
	eval(r2d2Sid, "K1 sent", "Ce[1] sent", "Cv sent")
	record(c.Announce(r2d2Sid, "sent"))
	eval(r2d2Sid, "K1 sent")
	return res
}

// workloadCalls is how many mutating calls runWorkload makes: 2 opens, 4
// announces (father + two "nobody knows" on muddy, "sent" on R2-D2), 4
// evals. The chaos run must execute each exactly once server-side,
// however many duplicates the wire carries.
const (
	workloadOpens     = 2
	workloadAnnounces = 4
	workloadEvals     = 4
)

// chaosSeeds returns the convergence sweep seeds: 1–3 by default,
// overridable via CHAOS_SEEDS ("4,5,6") so flake sweeps can widen the net
// without editing the test. The convergence assertions are seed-free —
// every seed must produce the clean run's bytes — so any seed is fair.
func chaosSeeds(t *testing.T) []int64 {
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 2, 3}
	}
	var seeds []int64
	for _, part := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEEDS: bad seed %q", part)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// TestChaosConvergence is the tentpole's acceptance test: the same
// workload runs once against a clean daemon and once, per seed, through a
// chaos proxy injecting delay, loss and duplication from the repo's own
// fault engine. The retrying client must converge to byte-identical
// verdicts, and the server's counters must show every logical call
// executed exactly once — duplicates absorbed by the idempotency window
// (dedupe hits, no recomputed evals, no double-advanced chains).
func TestChaosConvergence(t *testing.T) {
	cleanSrv := server.New(server.Config{})
	cleanTS := httptest.NewServer(cleanSrv.Handler())
	defer cleanTS.Close()
	clean := runWorkload(t, client.New(client.Config{BaseURL: cleanTS.URL}))
	cleanJSON, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			srv := server.New(server.Config{})
			srvTS := httptest.NewServer(srv.Handler())
			defer srvTS.Close()

			proxy, err := chaosproxy.New(chaosproxy.Config{
				Target: srvTS.URL,
				Plan: faults.Plan{
					Seed:  seed,
					Delay: faults.Uniform{Min: 1, MaxD: 3},
					Drop:  0.4,
					Dup:   0.4,
				},
				Tick: time.Millisecond,
				// Byte-level fates ride along: trickled reads must not
				// corrupt verdicts, and mid-body severs are one more
				// lost-response shape the idempotent retry must absorb.
				SlowLoris: 0.3,
				Sever:     0.3,
			})
			if err != nil {
				t.Fatal(err)
			}
			proxyTS := httptest.NewServer(proxy)
			defer proxyTS.Close()

			c := client.New(client.Config{
				BaseURL:           proxyTS.URL,
				Seed:              seed,
				DeterministicKeys: true,
				MaxAttempts:       30,
				BaseDelay:         time.Millisecond,
				MaxDelay:          8 * time.Millisecond,
			})
			chaos := runWorkload(t, c)
			chaosJSON, err := json.Marshal(chaos)
			if err != nil {
				t.Fatal(err)
			}
			if string(chaosJSON) != string(cleanJSON) {
				t.Fatalf("chaos run diverged from the clean run:\nclean: %s\nchaos: %s", cleanJSON, chaosJSON)
			}

			pst := proxy.StatsSnapshot()
			if pst.DroppedRequests+pst.DroppedResponses+pst.Duplicated == 0 {
				t.Fatalf("seed %d injected no faults; the run proves nothing: %+v", seed, pst)
			}
			sst := srv.StatsSnapshot()
			// Exactly-once execution server-side: duplicates and retries
			// never recompute an eval or advance a chain twice.
			if sst.Opened != workloadOpens {
				t.Errorf("opens executed %d times, want %d", sst.Opened, workloadOpens)
			}
			if sst.Announces != workloadAnnounces {
				t.Errorf("announces executed %d times, want %d (chain double-advanced or lost)", sst.Announces, workloadAnnounces)
			}
			if sst.Evals != workloadEvals {
				t.Errorf("evals executed %d times, want %d (verdict batch recomputed)", sst.Evals, workloadEvals)
			}
			// The wire carried duplicates (proxy-made or retry-made after a
			// dropped response); every one of them must have been absorbed
			// by the dedupe window rather than executed.
			if sst.DedupeHits == 0 && pst.Duplicated+pst.DroppedResponses > 0 {
				t.Errorf("faults injected (%+v) but no dedupe hits recorded: %+v", pst, sst)
			}
			// Sessions reflect exactly the workload's chains.
			if sst.Sessions != workloadOpens {
				t.Errorf("sessions: %d, want %d", sst.Sessions, workloadOpens)
			}
			t.Logf("seed %d: proxy %+v; server dedupe_hits=%d shed=%d; client retries=%d",
				seed, pst, sst.DedupeHits, sst.Shed, c.Stats().Retries)
		})
	}
}
