// Package runs implements the runs-and-systems model of Sections 5 and 6 of
// Halpern & Moses: a distributed system is identified with the set of its
// possible runs, a point is a pair (run, time), and knowledge is ascribed to
// processors through view functions over points.
//
// Time is discrete (the paper's results carry over unchanged; README's
// "Paper section → package map" lists where each is reproduced) and runs
// are observed up to a finite horizon. A run records, for each processor,
// its initial state, wake-up time, optional clock readings, and the
// message events it sends and receives. The package derives local
// histories h(p, r, t) exactly as in Section 5: the initial state plus the
// sequence of messages sent and received before time t, with clock stamps if
// and only if the processor has a clock, plus the current clock reading.
//
// A System (a set of runs) together with a view function and a ground-fact
// interpretation π induces a finite Kripke model over points, on which the
// kripke package evaluates the full language, including the temporal
// operators of Sections 11–12. This package supplies their run-based
// steps — E^ε, E^⋄, E^T, ◇ and □ — as a set-level hook; the kripke
// evaluator builds C^ε, C^⋄ and C^T from them as greatest fixed points.
package runs

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
)

// Time is a discrete instant; points of a run are times 0..Horizon.
type Time int

// MessageEvent is one message: sent by From at SendTime, received by To at
// RecvTime, or lost if RecvTime == Lost.
type MessageEvent struct {
	From, To int
	SendTime Time
	RecvTime Time // Lost if the message is never delivered
	Payload  string
}

// Lost marks a message that is never delivered.
const Lost Time = -1

// Delivered reports whether the message was delivered (within the horizon).
func (e MessageEvent) Delivered() bool { return e.RecvTime != Lost }

// Run is a single execution of the system observed up to a horizon.
type Run struct {
	// Name identifies the run within its system (for display/debugging).
	Name string
	// N is the number of processors.
	N int
	// Horizon is the last observed time; the run has points 0..Horizon.
	Horizon Time
	// Init holds each processor's initial state.
	Init []string
	// Wake holds each processor's wake-up time tinit(p, r).
	Wake []Time
	// Messages lists every message event of the run.
	Messages []MessageEvent
	// Meta carries application-defined run attributes (e.g. the time at
	// which a general decides to attack). Interpretations may read it.
	Meta map[string]int

	// clocks[p][t] is processor p's clock reading at time t; nil means the
	// processor has no clock.
	clocks [][]int

	// obsCache memoizes each processor's full sorted observation list
	// (History at successive times walks prefixes of it); obsCacheN is the
	// message count it was built from, so appended messages invalidate it.
	obsCache  [][]observation
	obsCacheN int
}

// NewRun returns a run with n processors, all awake from time 0, empty
// initial states, no clocks and no messages.
func NewRun(name string, n int, horizon Time) *Run {
	return &Run{
		Name:    name,
		N:       n,
		Horizon: horizon,
		Init:    make([]string, n),
		Wake:    make([]Time, n),
		Meta:    make(map[string]int),
	}
}

// Clone returns a deep copy of the run.
func (r *Run) Clone() *Run {
	c := &Run{
		Name:    r.Name,
		N:       r.N,
		Horizon: r.Horizon,
		Init:    append([]string(nil), r.Init...),
		Wake:    append([]Time(nil), r.Wake...),
		Meta:    make(map[string]int, len(r.Meta)),
	}
	c.Messages = append([]MessageEvent(nil), r.Messages...)
	for k, v := range r.Meta {
		c.Meta[k] = v
	}
	if r.clocks != nil {
		c.clocks = make([][]int, len(r.clocks))
		for p, cl := range r.clocks {
			if cl != nil {
				c.clocks[p] = append([]int(nil), cl...)
			}
		}
	}
	return c
}

// SetClock gives processor p a clock with the given readings, one per time
// 0..Horizon. Readings must be monotone nondecreasing from the wake-up time
// (Section 5); SetClock validates this.
func (r *Run) SetClock(p int, readings []int) error {
	if len(readings) != int(r.Horizon)+1 {
		return fmt.Errorf("runs: clock for p%d has %d readings, want %d", p, len(readings), r.Horizon+1)
	}
	for t := int(r.Wake[p]) + 1; t <= int(r.Horizon); t++ {
		if readings[t] < readings[t-1] {
			return fmt.Errorf("runs: clock for p%d decreases at t=%d", p, t)
		}
	}
	if r.clocks == nil {
		r.clocks = make([][]int, r.N)
	}
	r.clocks[p] = append([]int(nil), readings...)
	return nil
}

// SetIdentityClock gives processor p a clock that reads the real time.
func (r *Run) SetIdentityClock(p int) {
	readings := make([]int, r.Horizon+1)
	for t := range readings {
		readings[t] = t
	}
	_ = r.SetClock(p, readings) // identity readings are always valid
}

// SetShiftedClock gives processor p a clock reading real time plus offset.
func (r *Run) SetShiftedClock(p int, offset int) {
	readings := make([]int, r.Horizon+1)
	for t := range readings {
		readings[t] = t + offset
	}
	_ = r.SetClock(p, readings)
}

// HasClock reports whether processor p has a clock in this run.
func (r *Run) HasClock(p int) bool {
	return r.clocks != nil && p < len(r.clocks) && r.clocks[p] != nil
}

// ClockReading returns τ(p, r, t), and false if p has no clock or has not
// yet woken up.
func (r *Run) ClockReading(p int, t Time) (int, bool) {
	if !r.HasClock(p) || t < r.Wake[p] {
		return 0, false
	}
	return r.clocks[p][t], true
}

// Send appends a delivered message event.
func (r *Run) Send(from, to int, sendAt, recvAt Time, payload string) {
	r.Messages = append(r.Messages, MessageEvent{
		From: from, To: to, SendTime: sendAt, RecvTime: recvAt, Payload: payload,
	})
}

// SendLost appends a message event that is never delivered.
func (r *Run) SendLost(from, to int, sendAt Time, payload string) {
	r.Messages = append(r.Messages, MessageEvent{
		From: from, To: to, SendTime: sendAt, RecvTime: Lost, Payload: payload,
	})
}

// DeliveredBefore counts messages received strictly before t.
func (r *Run) DeliveredBefore(t Time) int {
	n := 0
	for _, m := range r.Messages {
		if m.Delivered() && m.RecvTime < t {
			n++
		}
	}
	return n
}

// observation is one entry of a local history.
type observation struct {
	at      Time // real time of the event
	kind    byte // 's' or 'r'
	peer    int
	payload string
	seq     int // tie-break: order of appearance in Messages
}

// observations returns the events processor p observes strictly before t,
// in order of occurrence.
func (r *Run) observations(p int, t Time) []observation {
	var obs []observation
	for i, m := range r.Messages {
		if m.From == p && m.SendTime < t {
			obs = append(obs, observation{at: m.SendTime, kind: 's', peer: m.To, payload: m.Payload, seq: i})
		}
		if m.To == p && m.Delivered() && m.RecvTime < t {
			obs = append(obs, observation{at: m.RecvTime, kind: 'r', peer: m.From, payload: m.Payload, seq: i})
		}
	}
	// A message a processor sends itself yields two entries with one seq;
	// the send ('s') sorts before the receive ('r'), so the order is total.
	slices.SortFunc(obs, func(a, b observation) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq), cmp.Compare(b.kind, a.kind))
	})
	return obs
}

// sortedObs returns everything processor p observes over the whole run,
// ordered by (time, seq), memoized on the run. The observations before any
// time t are a prefix of the list, so History at every t of a run — the
// inner loop of point-model construction — shares one collection and one
// sort. Appending messages invalidates the cache; callers that interleave
// Send with History (none do) just repay the sort.
func (r *Run) sortedObs(p int) []observation {
	if r.obsCache == nil || r.obsCacheN != len(r.Messages) {
		r.obsCache = make([][]observation, r.N)
		r.obsCacheN = len(r.Messages)
	}
	if obs := r.obsCache[p]; obs != nil {
		return obs
	}
	obs := r.observations(p, r.Horizon+1)
	if obs == nil {
		obs = make([]observation, 0) // cache "no events" as non-nil
	}
	r.obsCache[p] = obs
	return obs
}

// History returns a canonical encoding of h(p, r, t), the local history of
// Section 5: empty before the wake-up time; afterwards the initial state and
// the ordered sequence of messages sent and received before t. If p has a
// clock, each event is stamped with the clock reading at its occurrence and
// the encoding ends with the current clock reading; without a clock no
// times appear, so a processor that observes nothing cannot tell how much
// time has passed.
func (r *Run) History(p int, t Time) string {
	if t < r.Wake[p] {
		return "asleep"
	}
	hasClock := r.HasClock(p)
	buf := make([]byte, 0, 48)
	buf = append(buf, "init="...)
	buf = append(buf, r.Init[p]...)
	for _, o := range r.sortedObs(p) {
		if o.at >= t {
			break
		}
		buf = append(buf, ';', o.kind)
		if hasClock {
			buf = append(buf, '@')
			buf = strconv.AppendInt(buf, int64(r.clocks[p][o.at]), 10)
		}
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(o.peer), 10)
		buf = append(buf, '/')
		buf = append(buf, o.payload...)
	}
	if hasClock {
		buf = append(buf, ";clock="...)
		buf = strconv.AppendInt(buf, int64(r.clocks[p][t]), 10)
	}
	return string(buf)
}

// System is a set of runs over the same processors and horizon — the
// paper's identification of a distributed system with its possible runs.
type System struct {
	Runs    []*Run
	N       int
	Horizon Time
}

// NewSystem collects runs into a system, validating that they agree on the
// number of processors and the horizon.
func NewSystem(rs ...*Run) (*System, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("runs: a system needs at least one run")
	}
	s := &System{Runs: rs, N: rs[0].N, Horizon: rs[0].Horizon}
	for _, r := range rs {
		if r.N != s.N {
			return nil, fmt.Errorf("runs: run %q has %d processors, want %d", r.Name, r.N, s.N)
		}
		if r.Horizon != s.Horizon {
			return nil, fmt.Errorf("runs: run %q has horizon %d, want %d", r.Name, r.Horizon, s.Horizon)
		}
	}
	return s, nil
}

// MustSystem is NewSystem that panics on error (for tests and examples).
func MustSystem(rs ...*Run) *System {
	s, err := NewSystem(rs...)
	if err != nil {
		panic(err)
	}
	return s
}

// RunByName returns the run with the given name.
func (s *System) RunByName(name string) (*Run, bool) {
	for _, r := range s.Runs {
		if r.Name == name {
			return r, true
		}
	}
	return nil, false
}

// NumPoints returns the number of points (worlds) of the system.
func (s *System) NumPoints() int { return len(s.Runs) * (int(s.Horizon) + 1) }

// ViewFunc assigns processor p a view at the point (r, t). Points with
// equal views are indistinguishable to p. Views must be functions of the
// local history (Section 6); the provided view functions guarantee this.
type ViewFunc func(r *Run, p int, t Time) string

// CompleteHistoryView is the complete-history interpretation of Section 6:
// the view is the entire local history. It makes the finest distinctions any
// view-based interpretation can make, and is the interpretation used for the
// paper's impossibility results.
func CompleteHistoryView(r *Run, p int, t Time) string { return r.History(p, t) }

// ObliviousView assigns every processor the same view Λ at every point, the
// coarsest interpretation of Section 6: every fact valid in the system is
// common knowledge, and the knowledge hierarchy collapses.
func ObliviousView(*Run, int, Time) string { return "lambda" }

// PropFn decides whether a ground fact holds at the point (r, t); it is one
// column of the assignment π of Section 6.
type PropFn func(r *Run, t Time) bool

// Interpretation maps ground-fact names to their truth conditions.
type Interpretation map[string]PropFn

// StablyTrue returns a PropFn that holds from the given per-run time on
// (a stable fact in the sense of Section 11). The fact holds at (r, t) iff
// from(r) != Lost and t >= from(r).
func StablyTrue(from func(r *Run) Time) PropFn {
	return func(r *Run, t Time) bool {
		f := from(r)
		return f != Lost && t >= f
	}
}

// SentBy returns the time the first message with the given payload was sent
// in r, or Lost if none was.
func SentBy(payload string) func(r *Run) Time {
	return func(r *Run) Time {
		best := Lost
		for _, m := range r.Messages {
			if m.Payload == payload && (best == Lost || m.SendTime < best) {
				best = m.SendTime
			}
		}
		return best
	}
}

// ReceivedBy returns the time the first message with the given payload was
// received in r, or Lost if never delivered.
func ReceivedBy(payload string) func(r *Run) Time {
	return func(r *Run) Time {
		best := Lost
		for _, m := range r.Messages {
			if m.Payload == payload && m.Delivered() && (best == Lost || m.RecvTime < best) {
				best = m.RecvTime
			}
		}
		return best
	}
}
