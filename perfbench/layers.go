package main

import (
	"fmt"
	"strings"
	"time"
)

// perLayerJSON lists the per-layer metrics the last output line carries:
// the ones every workload measures. The op-suffixed rows of opens,
// announces and closes and the announce-only kernel rows are printed in
// the report of the workloads that have them.
var perLayerJSON = []struct{ name, unit string }{
	{"kripke.evalbatch_us", "us"},
	{"kripke.quotient_worlds", "count"},
	{"logic.parse_us", "us"},
	{"logic.formulas", "count"},
	{"systems.load_us", "us"},
	{"server.busy_us", "us"},
	{"server.busy_us.eval", "us"},
	{"server.self_us", "us"},
	{"server.self_us.eval", "us"},
	{"server.resp_bytes", "bytes"},
	{"server.resp_bytes.eval", "bytes"},
	{"cluster.shard_calls", "count"},
	{"cluster.shard_calls.eval", "count"},
	{"cluster.self_us", "us"},
	{"cluster.self_us.eval", "us"},
	{"cluster.hop_us", "us"},
	{"cluster.hop_us.eval", "us"},
	{"client.self_us", "us"},
	{"client.self_us.eval", "us"},
	{"cluster.hedges", "count"},
	{"cluster.hedge_wins", "ratio"},
	{"client.retries", "count"},
	{"server.shed", "count"},
	{"server.dedupe_hits", "count"},
	{"cluster.failovers", "count"},
	{"trace.ops_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// means accumulates per-op values under a metric name.
type means struct {
	sum   map[string]float64
	n     map[string]int
	order []string
}

func newMeans() *means { return &means{sum: map[string]float64{}, n: map[string]int{}} }

func (m *means) add(name string, v float64) {
	if _, ok := m.n[name]; !ok {
		m.order = append(m.order, name)
	}
	m.sum[name] += v
	m.n[name]++
}

// addOp adds v under name and under name.<kind>.
func (m *means) addOp(name string, kind opKind, v float64) {
	m.add(name, v)
	m.add(name+"."+kind.String(), v)
}

func us(d int64) float64 { return float64(d) / 1e3 }

// perLayer derives the per-layer metrics of the traced phase from its
// spans and the replay, prints them, fills res, and returns how many shard
// or hop spans could not be linked to a client op.
func perLayer(rp *report, res *result, phases []phaseResult, setupRecs []*record, spans []span,
	replay map[int64]replayTimes, before, after fleetStats) int {
	untraced, traced := phases[0], phases[1]
	byOp := make(map[int64][]span)
	unlinked := 0
	for _, s := range spans {
		if s.Op != 0 {
			byOp[s.Op] = append(byOp[s.Op], s)
			continue
		}
		if (strings.HasPrefix(s.Name, "shard.") && s.Name != "shard.healthz") || strings.HasPrefix(s.Name, "hop.") {
			unlinked++
		}
	}

	m := newMeans()
	opens := 0
	for _, rec := range traced.recs {
		if rec.Err != nil {
			continue
		}
		kind := rec.Kind
		rt := replay[rec.ID]
		var clientSpan span
		var routers, hopIvs []interval
		var busy, self, bytes, hopGap int64
		hops := map[int64]span{}
		var shards []span
		for _, s := range byOp[rec.ID] {
			switch {
			case s.ID == rec.ID:
				clientSpan = s
			case strings.HasPrefix(s.Name, "router."):
				routers = append(routers, interval{s.Start, s.End})
			case strings.HasPrefix(s.Name, "hop."):
				hops[s.ID] = s
				hopIvs = append(hopIvs, interval{s.Start, s.End})
			case strings.HasPrefix(s.Name, "shard."):
				shards = append(shards, s)
			}
		}
		work := int64(rt.total())
		for _, s := range shards {
			busy += s.dur()
			self += s.dur() - min(s.dur(), work)
			bytes += s.Bytes
			if h, ok := hops[s.Parent]; ok {
				hopGap += h.dur() - s.dur()
			}
		}
		var routerSelf int64
		for _, iv := range routers {
			routerSelf += (iv.end - iv.start) - covered(iv.start, iv.end, hopIvs)
		}
		m.addOp("client.self_us", kind, us(clientSpan.dur()-covered(clientSpan.Start, clientSpan.End, routers)))
		m.addOp("cluster.self_us", kind, us(routerSelf))
		m.addOp("cluster.hop_us", kind, us(hopGap))
		m.addOp("cluster.shard_calls", kind, float64(len(hops)))
		m.addOp("server.busy_us", kind, us(busy))
		m.addOp("server.self_us", kind, us(self))
		m.addOp("server.resp_bytes", kind, float64(bytes))

		switch kind {
		case opOpen:
			opens++
			m.add("systems.load_us", us(int64(rt.load)))
		case opEval:
			m.add("kripke.evalbatch_us", us(int64(rt.evalBatch)))
		case opAnnounce:
			m.add("kripke.announce_eval_us", us(int64(rt.announceEval)))
			m.add("kripke.restrict_us", us(int64(rt.restrict)))
		}
		if kind == opEval || kind == opAnnounce {
			m.add("kripke.quotient_worlds", float64(rt.quotientWorlds))
			m.add("logic.parse_us", us(int64(rt.parse)))
			m.add("logic.formulas", float64(rt.formulas))
		}
	}
	if opens == 0 {
		// Workloads that open only during set-up (tower) report the
		// construction cost of those opens.
		for _, rec := range setupRecs {
			m.add("systems.load_us", us(int64(replay[rec.ID].load)))
		}
	}

	counts := map[string]float64{
		"cluster.hedges":     float64(after.router.Hedges - before.router.Hedges),
		"cluster.failovers":  float64(after.router.Failovers - before.router.Failovers),
		"client.retries":     float64(after.retries - before.retries),
		"server.shed":        0,
		"server.dedupe_hits": 0,
		"cluster.hedge_wins": 0,
	}
	if h := counts["cluster.hedges"]; h > 0 {
		counts["cluster.hedge_wins"] = float64(after.router.HedgeWins-before.router.HedgeWins) / h
	}
	for i := range after.shards {
		counts["server.shed"] += float64(after.shards[i].Shed - before.shards[i].Shed)
		counts["server.dedupe_hits"] += float64(after.shards[i].DedupeHits - before.shards[i].DedupeHits)
	}
	untracedRate := float64(len(untraced.recs)) / untraced.elapsed.Seconds()
	tracedRate := float64(len(traced.recs)) / traced.elapsed.Seconds()
	counts["trace.ops_per_s"] = tracedRate
	counts["trace.overhead_pct"] = 100 * (untracedRate - tracedRate) / untracedRate

	value := func(name string) (float64, bool) {
		if v, ok := counts[name]; ok {
			return v, true
		}
		if n := m.n[name]; n > 0 {
			return m.sum[name] / float64(n), true
		}
		return 0, false
	}
	rp.section(fmt.Sprintf("per-layer (traced, %d ops in %.3f s; means per op of the named kind)", len(traced.recs), traced.elapsed.Seconds()))
	inJSON := map[string]bool{}
	for _, pl := range perLayerJSON {
		inJSON[pl.name] = true
		v, ok := value(pl.name)
		if !ok {
			rp.missing(pl.name, "no op of this kind")
		}
		res.Metrics[pl.name] = metric{Value: v, Unit: pl.unit}
		rp.line(pl.name, v, pl.unit, fmt.Sprintf("n=%d", m.n[pl.name]))
	}
	for _, name := range m.order {
		if inJSON[name] {
			continue
		}
		unit := "us"
		switch {
		case strings.HasPrefix(name, "cluster.shard_calls"):
			unit = "count"
		case strings.HasPrefix(name, "server.resp_bytes"):
			unit = "bytes"
		}
		v, _ := value(name)
		rp.line(name, v, unit, fmt.Sprintf("n=%d (report only)", m.n[name]))
	}
	rp.line("trace.untraced_ops_per_s", untracedRate, "1/s", fmt.Sprintf("n=%d ops in %.3f s", len(untraced.recs), untraced.elapsed.Seconds()))
	return unlinked
}

// replaySpans turns the replay timings of the traced phase's ops into
// spans, laid end to end from each op's replay start in the order the
// replay ran them, parented to the op's client span.
func replaySpans(t *tracer, recs []*record, replay map[int64]replayTimes) []span {
	var out []span
	for _, rec := range recs {
		rt, ok := replay[rec.ID]
		if !ok || rec.Err != nil {
			continue
		}
		at := rt.start
		for _, part := range []struct {
			name string
			d    time.Duration
		}{
			{"systems.load", rt.load},
			{"logic.parse", rt.parse},
			{"kripke.evalbatch", rt.evalBatch},
			{"kripke.announce_eval", rt.announceEval},
			{"kripke.restrict", rt.restrict},
		} {
			if part.d == 0 {
				continue
			}
			out = append(out, span{ID: t.newID(), Parent: rec.ID, Op: rec.ID, Name: "replay." + part.name, Start: at, End: at + int64(part.d)})
			at += int64(part.d)
		}
	}
	return out
}
