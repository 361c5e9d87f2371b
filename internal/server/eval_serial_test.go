package server

import (
	"net/http"
	"testing"
)

// towerBatch is a muddy:12 batch across the paper's hierarchy: K_i
// towers, E^k, D_G (a one-agent group among them) and C_G.
var towerBatch = []string{
	"K0 muddy1",
	"K3 K7 K0 ~muddy5",
	"E^3 (muddy0 | muddy5)",
	"E^8 muddy2",
	"D{4,9} muddy4",
	"D{6,6} ~muddy6",
	"D (muddy0 | muddy11)",
	"C (muddy0 | muddy1 | muddy2 | muddy3 | muddy4 | muddy5 | muddy6 | muddy7 | muddy8 | muddy9 | muddy10 | muddy11)",
	"C{2,3} muddy2",
	"K0 muddy1 & E^3 (muddy0 | muddy5)",
}

// TestEvalMemoStatsExactAnyWorkers: every batch runs on one evaluator,
// whatever its request's workers field says, so the view memo's hit and
// miss deltas it reports are exactly the serial batch's.
func TestEvalMemoStatsExactAnyWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	stats := func() Stats {
		t.Helper()
		code, body := do(t, ts, "GET", "/v1/stats", nil, "")
		if code != http.StatusOK {
			t.Fatalf("stats: %d: %s", code, body)
		}
		return decode[Stats](t, body)
	}
	// delta evaluates the tower batch on a fresh muddy:12 session, cold
	// and then warm, and returns the memo lookups (hits, misses) each pass
	// added. Workers 0 is omitted from the request body.
	delta := func(workers int) (cold, warm [2]int64) {
		t.Helper()
		code, body := do(t, ts, "POST", "/v1/sessions", OpenRequest{System: "muddy:12"}, "")
		if code != http.StatusCreated {
			t.Fatalf("open: %d: %s", code, body)
		}
		sid := decode[SessionState](t, body).Session
		for _, pass := range []*[2]int64{&cold, &warm} {
			before := stats()
			code, body := do(t, ts, "POST", "/v1/sessions/"+sid+"/eval", EvalRequest{Formulas: towerBatch, Workers: workers}, "")
			if code != http.StatusOK {
				t.Fatalf("eval: %d: %s", code, body)
			}
			after := stats()
			*pass = [2]int64{after.MemoHits - before.MemoHits, after.MemoMisses - before.MemoMisses}
		}
		return cold, warm
	}
	serialCold, serialWarm := delta(1)
	for i, workers := range []int{0, 0, 0, -1, 4} {
		cold, warm := delta(workers)
		if cold != serialCold || warm != serialWarm {
			t.Fatalf("run %d, workers %d: cold %v, warm %v (hits, misses); the serial batch: cold %v, warm %v",
				i, workers, cold, warm, serialCold, serialWarm)
		}
	}
	if serialCold[1] == 0 || serialWarm[1] != 0 || serialWarm[0] < int64(len(towerBatch)) {
		t.Fatalf("serial batch: cold %v, warm %v (hits, misses); want cold misses and a warm pass of hits only",
			serialCold, serialWarm)
	}
}
