package harness_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaosproxy"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/loadgen"
	"repro/internal/server"
)

var (
	routerOnce sync.Once
	routerBin  string
	routerErr  error
)

// knowrouterBin builds cmd/knowrouter once for the whole test binary.
func knowrouterBin(t *testing.T) string {
	t.Helper()
	if !harness.GoToolAvailable() {
		t.Skip("go tool not on PATH; cannot build knowrouter")
	}
	routerOnce.Do(func() {
		dir, err := os.MkdirTemp("", "knowrouter-bin-*")
		if err != nil {
			routerErr = err
			return
		}
		routerBin, routerErr = harness.BuildKnowrouter(dir)
	})
	if routerErr != nil {
		t.Fatal(routerErr)
	}
	return routerBin
}

// flakyLink is the router's only path to one shard: normally a mildly lossy
// chaosproxy (delays, occasional drops and duplicates, trickled and severed
// responses), flipped into a full partition where every message in either
// direction is lost — including the half of "drops" where the shard
// executes the request and only the response dies, the regime the paper's
// impossibility argument lives in.
type flakyLink struct {
	partitioned atomic.Bool
	mild, cut   http.Handler
}

func newFlakyLink(t *testing.T, target string, seed int64) *flakyLink {
	t.Helper()
	mild, err := chaosproxy.New(chaosproxy.Config{
		Target:    target,
		Plan:      faults.Plan{Seed: seed, Delay: faults.Uniform{Min: 1, MaxD: 2}, Drop: 0.05, Dup: 0.1},
		Tick:      time.Millisecond,
		SlowLoris: 0.2,
		Sever:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := chaosproxy.New(chaosproxy.Config{
		Target: target,
		Plan:   faults.Plan{Seed: seed + 1, Delay: faults.Fixed{D: 1}, Drop: 1},
		Tick:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &flakyLink{mild: mild, cut: cut}
}

func (l *flakyLink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if l.partitioned.Load() {
		l.cut.ServeHTTP(w, r)
		return
	}
	l.mild.ServeHTTP(w, r)
}

func routerStats(routerURL string) (cluster.RouterStats, error) {
	var st cluster.RouterStats
	resp, err := http.Get(routerURL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// TestClusterPartitionConvergence is the cluster tentpole test: a loadgen
// fleet drives knowrouter over three real knowd shards; one shard sits
// behind a chaos link that is fully partitioned for the middle half of the
// run, and mid-partition the busiest healthy shard is SIGKILLed (stateless:
// the router's persisted announcement sources are the only replay script)
// and restarted empty. The retrying fleet must converge to records
// byte-identical with a clean single-shard baseline, final chains at
// exactly the scheduled links, no hedged mutation ever issued, and — after
// the partition heals — a reconciled fleet holding exactly the mapped
// replicas: a surviving unmapped upstream session would be a duplicate
// open, and there must be none.
func TestClusterPartitionConvergence(t *testing.T) {
	knowdPath := knowdBin(t)
	routerPath := knowrouterBin(t)
	for _, seed := range crashSeeds(t) {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			sc := loadgen.Build(loadgen.Config{Seed: seed, Workers: 3, Sessions: 2})

			// Clean baseline: the same schedule against one in-process daemon.
			cleanTS := httptest.NewServer(server.New(server.Config{}).Handler())
			defer cleanTS.Close()
			clean, err := sc.Run(loadgen.RunConfig{NewClient: newFleetClient(cleanTS.URL, seed)})
			if err != nil {
				t.Fatal(err)
			}
			if clean.Errors > 0 {
				t.Fatalf("clean baseline failed %d ops", clean.Errors)
			}

			// Three real shards. No -state: a killed shard restarts empty, so
			// failover replay from the router is the only road back.
			shards := make([]*harness.Daemon, 3)
			for i := range shards {
				addr, err := harness.FreeAddr()
				if err != nil {
					t.Fatal(err)
				}
				d, err := harness.New(harness.Config{
					Bin: knowdPath, Addr: addr, Args: []string{"-quiet"}, Logf: t.Logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Start(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(d.Stop)
				shards[i] = d
			}
			link := newFlakyLink(t, shards[2].URL(), seed)
			linkTS := httptest.NewServer(link)
			defer linkTS.Close()

			routerAddr, err := harness.FreeAddr()
			if err != nil {
				t.Fatal(err)
			}
			router, err := harness.New(harness.Config{
				Bin:  routerPath,
				Addr: routerAddr,
				Args: []string{
					"-shards", "n1=" + shards[0].URL() + ",n2=" + shards[1].URL() + ",n3=" + linkTS.URL,
					"-seed", strconv.FormatInt(seed, 10),
					"-health-every", "25ms",
					"-fail-after", "2",
					"-readmit-after", "250ms",
					"-shard-attempts", "12",
					"-shard-base-delay", "2ms",
					"-shard-max-delay", "50ms",
					"-quiet",
				},
				Logf: t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := router.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(router.Stop)
			routerURL := router.URL()

			// Fault schedule over the op count: partition the chaos link for
			// the middle half of the body ops, and SIGKILL the busiest
			// un-proxied shard (then restart it empty) right in the middle of
			// the partition window.
			counts := sc.CountByKind()
			opens := counts[loadgen.OpOpen]
			body := sc.NumOps() - opens
			partitionAt := opens + body/4
			killAt := opens + body/2
			healAt := opens + (3*body)/4
			killC := make(chan struct{})
			killDone := make(chan error, 1)
			go func() {
				<-killC
				victim := 0
				if st, err := routerStats(routerURL); err == nil && len(st.Shards) == 3 &&
					st.Shards[1].Primaries > st.Shards[0].Primaries {
					victim = 1
				}
				t.Logf("seed %d: killing shard n%d mid-partition", seed, victim+1)
				if err := shards[victim].Kill(); err != nil {
					killDone <- err
					return
				}
				killDone <- shards[victim].Start()
			}()

			res, err := sc.Run(loadgen.RunConfig{
				NewClient: newFleetClient(routerURL, seed),
				AfterOp: func(done int, op loadgen.Op) {
					switch done {
					case partitionAt:
						t.Logf("seed %d: partitioning n3 at op %d", seed, done)
						link.partitioned.Store(true)
					case killAt:
						close(killC)
					case healAt:
						t.Logf("seed %d: healing n3 at op %d", seed, done)
						link.partitioned.Store(false)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if kerr := <-killDone; kerr != nil {
				t.Fatalf("kill/restart: %v", kerr)
			}
			link.partitioned.Store(false) // in case healAt was never reached
			if res.Errors > 0 {
				for _, rec := range res.Records {
					if rec.Err != "" {
						t.Errorf("op failed across partition: %s: %s", rec.Line, rec.Err)
					}
				}
				t.FailNow()
			}

			// Byte-identical records: the fleet behind the router produced
			// exactly the clean single-daemon answers.
			cleanJSON, err := json.Marshal(clean.Records)
			if err != nil {
				t.Fatal(err)
			}
			chaosJSON, err := json.Marshal(res.Records)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(chaosJSON, cleanJSON) {
				t.Fatalf("partition run diverged from clean baseline:\nclean: %s\nchaos: %s",
					cleanJSON, chaosJSON)
			}

			// Final chain links: a fresh GET per session through the router.
			// This reads upstream truth, not the router's cached last state —
			// and doubles as the read-repair sweep for any replica wiped by a
			// kill+restart too quick for the health checker to eject (the
			// router's designed lazy repair: 404 → failover → source replay).
			rc := client.New(client.Config{BaseURL: routerURL})
			states, err := rc.Sessions()
			if err != nil {
				t.Fatal(err)
			}
			links := sc.FinalLinks()
			if len(states) != len(links) {
				t.Fatalf("router maps %d sessions, schedule leaves %d open", len(states), len(links))
			}
			var got, want []int
			for _, cached := range states {
				st, err := rc.Get(cached.Session)
				if err != nil {
					t.Fatalf("read-repair GET %s: %v", cached.Session, err)
				}
				got = append(got, st.Link)
			}
			for _, n := range links {
				want = append(want, n)
			}
			sort.Ints(got)
			sort.Ints(want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("final chain links %v, schedule wants %v", got, want)
				}
			}

			// Convergence: the fleet may keep churning for a few seconds after
			// traffic stops (latched data-path breakers eject, evacuate, and
			// readmit once -readmit-after lapses), so demand one quiescent
			// fixed-point iteration where everything holds at once: a
			// reconcile pass found zero strays and zero shard errors, every
			// shard is healthy, and every shard (asked directly, past the
			// chaos link) holds exactly the replicas the router maps there.
			// An upstream session that survived reconciliation unmapped
			// would be a duplicate open.
			deadline := time.Now().Add(20 * time.Second)
			var st cluster.RouterStats
			converged := false
			var why string
			for !converged && time.Now().Before(deadline) {
				why = ""
				resp, err := http.Post(routerURL+"/v1/reconcile", "application/json", nil)
				if err != nil {
					t.Fatal(err)
				}
				var out map[string]int
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if out["strays_closed"] != 0 || out["shard_errors"] != 0 {
					why = "reconcile still busy: " + strconv.Itoa(out["strays_closed"]) + " strays, " +
						strconv.Itoa(out["shard_errors"]) + " errors"
				} else if st, err = routerStats(routerURL); err != nil {
					why = "stats: " + err.Error()
				} else {
					converged = true
					for i, sh := range st.Shards {
						if sh.State != "healthy" {
							converged, why = false, "shard "+sh.ID+" still "+sh.State
							break
						}
						held, err := client.New(client.Config{BaseURL: shards[i].URL()}).Sessions()
						if err != nil {
							converged, why = false, "listing "+sh.ID+": "+err.Error()
							break
						}
						if mapped := sh.Primaries + sh.Standbys; len(held) != mapped {
							converged = false
							why = "shard " + sh.ID + " holds " + strconv.Itoa(len(held)) +
								" sessions, router maps " + strconv.Itoa(mapped)
							break
						}
					}
				}
				if !converged {
					time.Sleep(50 * time.Millisecond)
				}
			}
			if !converged {
				t.Fatalf("fleet never reached the reconciled fixed point: %s", why)
			}
			if st.HedgedMutations != 0 {
				t.Fatalf("hedged mutations tripwire: %d", st.HedgedMutations)
			}
			if st.Panics != 0 {
				t.Fatalf("router recovered %d panics", st.Panics)
			}
			if st.Failovers == 0 {
				t.Fatal("a SIGKILL plus a partition produced no failovers; the chaos never bit")
			}
			t.Logf("seed %d: failovers %d (handoffs %d, reopens %d), hedges %d (wins %d), strays reaped %d, dedupe hits %d",
				seed, st.Failovers, st.Handoffs, st.Reopens, st.Hedges, st.HedgeWins, st.DupOpens, st.DedupeHits)
		})
	}
}

// TestClusterSoakReportShape boots nothing: it pins the report endpoint's
// shape through an in-process router so the soak script's CLUSTER_REPORT.md
// always has the table CI expects.
func TestClusterSoakReportShape(t *testing.T) {
	sh := httptest.NewServer(server.New(server.Config{}).Handler())
	defer sh.Close()
	rt, err := cluster.New(cluster.Config{
		Shards: []cluster.Shard{{ID: "n1", Addr: sh.URL, Weight: 1}},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	if _, err := client.New(client.Config{BaseURL: ts.URL}).Open("muddy:2", 0); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	report := buf.String()
	for _, want := range []string{"knowrouter fleet report", "| shard |", "| n1 |", "p99"} {
		if !bytes.Contains([]byte(report), []byte(want)) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	if got := resp.Header.Get("Content-Type"); got != "text/markdown; charset=utf-8" {
		t.Fatalf("report content type %q", got)
	}
}
