package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

func TestQuantileExact(t *testing.T) {
	ten := func() []float64 { return []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} }
	cases := []struct {
		samples []float64
		q, want float64
	}{
		{ten(), 0, 1},
		{ten(), 0.5, 5.5},
		{ten(), 0.99, 9.91},
		{ten(), 1, 10},
		{[]float64{15, 20, 35, 40, 50}, 0.4, 29},
		{[]float64{15, 20, 35, 40, 50}, 0.5, 35},
		{[]float64{7}, 0.99, 7},
	}
	for _, c := range cases {
		if got := quantile(c.samples, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %g, want NaN", got)
	}
	// A 30% shift in every sample moves every quantile by exactly 30%:
	// no bucketing rounds it away.
	base, shifted := ten(), ten()
	for i := range shifted {
		shifted[i] *= 1.3
	}
	if r := quantile(shifted, 0.5) / quantile(base, 0.5); math.Abs(r-1.3) > 1e-12 {
		t.Errorf("p50 ratio after a 30%% shift = %g, want 1.3", r)
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	ivs := []interval{{10, 20}, {15, 30}, {40, 50}, {0, 5}}
	if got := covered(12, 45, ivs); got != 18+5 {
		t.Errorf("covered = %d, want 23", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered with no intervals = %d, want 0", got)
	}
}

// encode renders the unit canonically, one line per step; equal scripts
// encode to equal bytes.
func (u unit) encode() string {
	var b strings.Builder
	for _, s := range u.Steps {
		fmt.Fprintf(&b, "c%d u%d w%d %s", u.Client, u.Index, u.Shared, s.Kind)
		switch s.Kind {
		case opOpen:
			fmt.Fprintf(&b, " %s seed=%d", s.System, s.Seed)
		case opAnnounce:
			fmt.Fprintf(&b, " %s", s.Formula)
		case opEval:
			fmt.Fprintf(&b, " worlds=%t knowset=%t\t%s", s.Worlds, s.KnowSet, strings.Join(s.Formulas, "\t"))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func dumpScripts(w *workload, seed int64, order []int) string {
	seeds := newSeedPlan(seed, w, 2)
	var b strings.Builder
	for _, k := range order {
		for c := 0; c < 2; c++ {
			b.WriteString(w.script(seed, seeds, c, k).encode())
		}
	}
	return b.String()
}

func TestScriptsDeterministic(t *testing.T) {
	forward := make([]int, 40)
	backward := make([]int, 40)
	for i := range forward {
		forward[i], backward[len(backward)-1-i] = i, i
	}
	for _, w := range workloads {
		a, b := dumpScripts(w, 7, forward), dumpScripts(w, 7, forward)
		if a != b {
			t.Fatalf("%s: equal seeds gave different scripts", w.Name)
		}
		if a == dumpScripts(w, 8, forward) {
			t.Errorf("%s: seeds 7 and 8 gave identical scripts", w.Name)
		}
		// Order independence: each unit owns its sub-stream, so drawing
		// the units in reverse yields the same units.
		rev := dumpScripts(w, 7, backward)
		lines := strings.Split(strings.TrimSpace(rev), "\n")
		if len(lines) != len(strings.Split(strings.TrimSpace(a), "\n")) {
			t.Fatalf("%s: reverse draw has a different op count", w.Name)
		}
		for _, l := range lines {
			if !strings.Contains(a, l+"\n") {
				t.Fatalf("%s: unit drawn in reverse order differs: %q", w.Name, l)
			}
		}
	}
}

func TestSessionSeedsDistinct(t *testing.T) {
	w := workloads[0]
	p := newSeedPlan(3, w, 2)
	seen := map[int64]bool{}
	for k := 0; k < 1000; k++ {
		for c := 0; c < 2; c++ {
			s := p.session(c, k)
			if seen[s] || s <= 0 {
				t.Fatalf("session seed %d repeats or is not positive", s)
			}
			seen[s] = true
		}
	}
	for i := 0; i < 4; i++ {
		if seen[p.warm(i)] {
			t.Fatalf("warm seed %d collides with a session seed", p.warm(i))
		}
	}
}

// TestShortRunsVerify runs each workload briefly, traced, and requires a
// clean verification, linked spans and every per-layer metric.
func TestShortRunsVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving stack")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := bench(config{workload: w.Name, seed: 1, seconds: 0.4, trace: true, clients: 2, setups: 1, outDir: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%t failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, pl := range perLayerJSON {
				if _, ok := res.Metrics[pl.name]; !ok {
					t.Errorf("per-layer metric %s missing", pl.name)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root names exactly the metrics an untraced and a traced run print.
func TestBenchmarkJSONMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving stack")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range spec.Workloads {
		if i >= len(workloads) || workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json", i, w.Name)
		}
	}
	res, err := bench(config{workload: "churn", seed: 2, seconds: 0.4, clients: 2, setups: 2}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(spec.EndToEnd) {
		t.Errorf("untraced run printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): printed %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(perLayerJSON) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run prints %d", len(spec.PerLayer), len(perLayerJSON))
	}
	for i, m := range spec.PerLayer {
		if pl := perLayerJSON[i]; pl.name != m.Name || pl.unit != m.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), code %s (%s)", i, m.Name, m.Unit, pl.name, pl.unit)
		}
	}
}
