// Command perfbench is the served-path benchmark: it boots two knowd
// shards and a knowrouter inside one process, drives them through
// internal/client from a seeded closed loop, checks every response against
// a direct replay on the kernel, and prints end-to-end metrics (untraced
// run) or per-layer metrics from spans (traced run). See README.md.
//
// Usage:
//
//	perfbench --workload ladder|tower|churn --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	clients  int
	setups   int
	outDir   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	// Two clients because the reference host has two CPUs; nine set-ups
	// so the median set-up time is steady.
	cfg := config{clients: 2, setups: 9, outDir: filepath.Join(".bench_build", "spans")}
	var trace int
	fl.StringVar(&cfg.workload, "workload", "ladder", "workload: ladder, tower or churn")
	fl.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fl.Float64Var(&cfg.seconds, "seconds", 45, "length of the timed part of the run in seconds")
	fl.IntVar(&trace, "trace", 0, "1: traced run (per-layer metrics); 0: untraced (end-to-end metrics)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs one workload end to end: set-up (several times, keeping the
// last stack), the timed phase or phases, fleet checks, replay and
// verification, and metrics. Progress and the full report go to out.
func bench(cfg config, out io.Writer) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	var r *runner
	var setupRecs []*record
	var setupTimes []float64
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		st, err := bootStack(t)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		rr := newRunner(t, st, w, cfg.seed, cfg.clients)
		recs, err := rr.openWarm()
		if err == nil {
			err = rr.warmUp()
		}
		if err != nil {
			st.shutdown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			if err := st.shutdown(); err != nil {
				return nil, fmt.Errorf("set-up shutdown: %w", err)
			}
			continue
		}
		r, setupRecs = rr, recs
	}
	defer r.st.shutdown()
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g traced=%t clients=%d\n",
		w.Name, cfg.seed, cfg.seconds, cfg.trace, cfg.clients)

	// A traced run splits its time between an untraced and a traced
	// phase, so it takes as long as an untraced run.
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	var phases []phaseResult
	var before, after fleetStats
	phases = append(phases, r.phase(d, false))
	if cfg.trace {
		if before, err = r.stats(); err != nil {
			return nil, fmt.Errorf("stats: %w", err)
		}
		phases = append(phases, r.phase(d, true))
	}
	if after, err = r.stats(); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}

	// Everything below runs outside the timed phases.
	var problems []string
	for _, e := range checkFleet(after) {
		problems = append(problems, e.Error())
	}
	all := slices.Clone(setupRecs)
	for _, p := range phases {
		all = append(all, p.recs...)
	}
	failed := 0
	for _, rec := range all {
		if rec.Err != nil {
			failed++
			problems = append(problems, fmt.Sprintf("op %d %s on %s failed: %v", rec.ID, rec.Kind, rec.Session, rec.Err))
		}
	}
	// Untraced ops are verified against a memoized replay; the traced
	// phase is replayed op by op, which also times the kernel layers.
	sc := &scriptCache{w: w, seed: cfg.seed, seeds: r.seeds}
	_, mismatches := newReplayer(sc, t, true).replay(append(slices.Clone(setupRecs), phases[0].recs...))
	replayed := make(map[int64]replayTimes)
	if cfg.trace {
		recs := append(slices.Clone(setupRecs), phases[1].recs...)
		times, errs := newReplayer(sc, t, false).replay(recs)
		mismatches = append(mismatches, errs...)
		for i, rec := range recs {
			replayed[rec.ID] = times[i]
		}
	}
	for _, e := range mismatches {
		problems = append(problems, e.Error())
	}
	invariant := checkMuddy(all, sc)
	for _, e := range invariant {
		problems = append(problems, e.Error())
	}
	failed += len(mismatches) + len(invariant)
	attempted := 0
	for _, p := range phases {
		attempted += len(p.recs)
	}

	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	rep := &report{out: out}
	if !cfg.trace {
		endToEnd(rep, res, phases[0], setupTimes, failed, attempted)
	} else {
		spans := append(t.snapshot(), replaySpans(t, phases[1].recs, replayed)...)
		unlinked := perLayer(rep, res, phases, setupRecs, spans, replayed, before, after)
		if unlinked > 0 {
			problems = append(problems, fmt.Sprintf("%d shard or hop spans are not linked to a client op", unlinked))
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, cfg.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(spans), path)
	}
	for i, p := range problems {
		if i == 20 {
			fmt.Fprintf(out, "FAIL: ... and %d more\n", len(problems)-i)
			break
		}
		fmt.Fprintf(out, "FAIL: %s\n", p)
	}
	res.Correct = len(problems) == 0
	fmt.Fprintf(out, "verify: %d ops checked against the direct replay, %d problems\n", len(all), len(problems))
	return res, nil
}

// checkMuddy asserts the §2 invariant on every ladder know-set eval as
// served: at links before the last "nobody knows" announcement no child
// knows its own state, and after it every child does.
func checkMuddy(recs []*record, sc *scriptCache) []error {
	var errs []error
	for _, rec := range recs {
		if rec.Err != nil || rec.Kind != opEval {
			continue
		}
		s := sc.step(rec.Client, rec.Unit, rec.Step)
		if !s.KnowSet {
			continue
		}
		wantKnow := rec.Link == s.N
		for i := 0; i < s.N; i++ {
			if knows := rec.Knows&(1<<i) != 0; knows != wantKnow {
				errs = append(errs, fmt.Errorf("muddy:%d link %d: child %d knows=%t, want %t", s.N, rec.Link, i, knows, wantKnow))
			}
		}
	}
	return errs
}

// report prints the human-readable metric lines.
type report struct{ out io.Writer }

func (rp *report) line(name string, v float64, unit, note string) {
	fmt.Fprintf(rp.out, "  %-28s %14.4f %-6s %s\n", name, v, unit, note)
}

func (rp *report) missing(name, why string) {
	fmt.Fprintf(rp.out, "  %-28s %14s %-6s %s\n", name, "-", "", why)
}

func (rp *report) section(title string) { fmt.Fprintf(rp.out, "%s\n", title) }

func ms(d []float64) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = v / 1e6
	}
	return out
}

// endToEnd fills the untraced metrics: throughput, latency quantiles from
// raw samples, error rate, set-up time and heap peak.
func endToEnd(rp *report, res *result, p phaseResult, setupTimes []float64, failed, attempted int) {
	put := func(name string, v float64, unit, note string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		rp.line(name, v, unit, note)
	}
	rp.section("end-to-end (untraced)")
	put("ops_per_s", float64(len(p.recs))/p.elapsed.Seconds(), "1/s",
		fmt.Sprintf("n=%d ops in %.3f s", len(p.recs), p.elapsed.Seconds()))
	byKind := make([][]float64, numKinds)
	var allOps []float64
	for _, rec := range p.recs {
		if rec.Err != nil {
			continue
		}
		ns := float64(rec.latency())
		byKind[rec.Kind] = append(byKind[rec.Kind], ns)
		allOps = append(allOps, ns)
	}
	quants := func(prefix string, samples []float64, gated bool) {
		n := len(samples)
		if n == 0 {
			rp.missing(prefix+"_p50_ms", "no samples in this workload")
			return
		}
		inMS := ms(samples)
		p50, p99 := quantile(inMS, 0.5), quantile(inMS, 0.99)
		note := fmt.Sprintf("n=%d", n)
		if gated {
			put(prefix+"_p50_ms", p50, "ms", note)
			put(prefix+"_p99_ms", p99, "ms", note)
			return
		}
		rp.line(prefix+"_p50_ms", p50, "ms", note)
		if n >= minP99Samples {
			rp.line(prefix+"_p99_ms", p99, "ms", note)
		} else {
			rp.missing(prefix+"_p99_ms", fmt.Sprintf("n=%d < %d samples", n, minP99Samples))
		}
	}
	quants("op", allOps, true)
	quants("eval", byKind[opEval], true)
	quants("open", byKind[opOpen], false)
	quants("announce", byKind[opAnnounce], false)
	quants("close", byKind[opClose], false)
	if len(byKind[opEval]) < minP99Samples {
		rp.missing("", fmt.Sprintf("warning: eval_p99_ms rests on n=%d < %d samples", len(byKind[opEval]), minP99Samples))
	}
	rate := 0.0
	if attempted > 0 {
		rate = float64(failed) / float64(attempted)
	}
	rp.line("error_rate", rate, "ratio", fmt.Sprintf("%d of %d failed, refused or mis-verified", failed, attempted))
	put("setup_s", quantile(slices.Clone(setupTimes), 0.5), "s", fmt.Sprintf("median of %d set-ups %s", len(setupTimes), fmtList(setupTimes)))
	put("heap_peak_mb", p.heapMB, "MB", "peak heap objects during the timed phase")
}

func fmtList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
