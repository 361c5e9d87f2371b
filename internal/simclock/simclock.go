// Package simclock provides a deterministic virtual clock for simulation:
// time is an int64 tick counter that never reads the wall clock and only
// moves when a caller advances it. Timers fire in a deterministic order —
// by deadline, then by scheduling order — so a simulation driven by the
// clock is reproducible event for event.
//
// The clock serves two styles of use:
//
//   - Synchronous event loops (the fault-injection engine of
//     internal/protocol) advance the clock explicitly with Advance,
//     AdvanceTo or Step; due timers fire inline, before the call returns,
//     in (deadline, scheduling) order. This path is single-threaded and
//     byte-reproducible.
//
//   - Simulated goroutines register with Go and block in Sleep; a clock
//     built with NewAuto advances automatically to the earliest pending
//     wake-up when every registered goroutine is blocked (the
//     TestClock/FakeClock auto-advance idiom), so simulated concurrent
//     processes need no explicit driver.
//
// Monotonicity is enforced: Advance rejects negative durations, AdvanceTo
// rejects targets in the past, and timers cannot be scheduled at negative
// delays. Time is a plain tick count (the runs package's discrete Time),
// not a time.Time: the package deliberately has no way to observe real
// time.
package simclock

import (
	"fmt"
	"sync"
)

// Timer is a scheduled callback; it fires once unless stopped first.
type Timer struct {
	when    int64
	seq     int64
	fn      func()
	stopped bool
	fired   bool
	index   int // position in the heap, -1 when popped
}

// Clock is a deterministic virtual clock. The zero value is not usable;
// construct one with New or NewAuto.
type Clock struct {
	mu   sync.Mutex
	now  int64
	seq  int64
	heap []*Timer

	// Auto-advance bookkeeping: registered counts the simulated
	// goroutines (Go), sleeping counts how many of them are blocked in
	// Sleep. When auto is set and sleeping == registered > 0, the clock
	// advances itself to the earliest pending timer.
	auto       bool
	registered int
	sleeping   int
	wg         sync.WaitGroup
}

// New returns a clock reading start that advances only explicitly.
func New(start int64) *Clock {
	return &Clock{now: start}
}

// NewAuto returns a clock reading start that additionally auto-advances to
// the earliest pending timer whenever every goroutine registered with Go
// is blocked in Sleep.
func NewAuto(start int64) *Clock {
	return &Clock{now: start, auto: true}
}

// Now returns the current virtual time.
func (c *Clock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d ticks, firing every timer with a
// deadline at or before the target, in (deadline, scheduling) order, before
// returning. Negative d is a monotonicity violation and is rejected.
func (c *Clock) Advance(d int64) error {
	if d < 0 {
		return fmt.Errorf("simclock: Advance(%d): virtual time is monotone", d)
	}
	c.mu.Lock()
	target := c.now + d
	c.advanceLocked(target)
	c.mu.Unlock()
	return nil
}

// AdvanceTo moves the clock forward to time t (a no-op if t equals the
// current time), firing due timers as Advance does. A target in the past is
// rejected.
func (c *Clock) AdvanceTo(t int64) error {
	c.mu.Lock()
	if t < c.now {
		now := c.now
		c.mu.Unlock()
		return fmt.Errorf("simclock: AdvanceTo(%d) from %d: virtual time is monotone", t, now)
	}
	c.advanceLocked(t)
	c.mu.Unlock()
	return nil
}

// Step advances to the earliest pending timer deadline and fires every
// timer due there. It reports the new time and whether a timer was pending;
// with no pending timers the clock does not move.
func (c *Clock) Step() (int64, bool) {
	c.mu.Lock()
	if len(c.heap) == 0 {
		now := c.now
		c.mu.Unlock()
		return now, false
	}
	target := c.heap[0].when
	c.advanceLocked(target)
	now := c.now
	c.mu.Unlock()
	return now, true
}

// advanceLocked moves time to target, firing due timers in (deadline, seq)
// order. Callbacks run without the clock lock, so they may schedule further
// timers; timers a callback schedules within the advancing window fire in
// the same sweep.
func (c *Clock) advanceLocked(target int64) {
	for len(c.heap) > 0 && c.heap[0].when <= target {
		t := c.pop()
		if t.when > c.now {
			c.now = t.when
		}
		t.fired = true
		c.mu.Unlock()
		t.fn()
		c.mu.Lock()
	}
	if target > c.now {
		c.now = target
	}
}

// AfterFunc schedules fn to run when the clock has advanced d more ticks.
// d must be nonnegative; d == 0 fires on the next advance (time does not
// move backwards, and the current instant has already been observed).
func (c *Clock) AfterFunc(d int64, fn func()) (*Timer, error) {
	if d < 0 {
		return nil, fmt.Errorf("simclock: AfterFunc(%d): negative delay", d)
	}
	c.mu.Lock()
	t := &Timer{when: c.now + d, seq: c.seq, fn: fn}
	c.seq++
	c.push(t)
	c.mu.Unlock()
	return t, nil
}

// At schedules fn at the absolute virtual time when; it must not be in the
// past.
func (c *Clock) At(when int64, fn func()) (*Timer, error) {
	c.mu.Lock()
	if when < c.now {
		now := c.now
		c.mu.Unlock()
		return nil, fmt.Errorf("simclock: At(%d) from %d: deadline in the past", when, now)
	}
	t := &Timer{when: when, seq: c.seq, fn: fn}
	c.seq++
	c.push(t)
	c.mu.Unlock()
	return t, nil
}

// Stop cancels the timer if it has not fired; it reports whether the
// cancellation prevented a firing.
func (c *Clock) Stop(t *Timer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	if t.index >= 0 {
		c.remove(t)
	}
	return true
}

// Pending returns the number of scheduled, unfired timers.
func (c *Clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.heap)
}

// NextDeadline returns the earliest pending timer deadline, if any.
func (c *Clock) NextDeadline() (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.heap) == 0 {
		return 0, false
	}
	return c.heap[0].when, true
}

// Go registers fn as a simulated goroutine and runs it; an auto-advance
// clock counts it toward the everyone-is-blocked condition until fn
// returns. Wait blocks until every goroutine started with Go has returned.
//
// Auto-advance counts only goroutines already registered: a goroutine
// started by an earlier Go may sleep, and the clock may advance, before a
// later Go call runs. Callers that need several goroutines to start at
// the same virtual time make them wait on a barrier released after the
// last Go.
func (c *Clock) Go(fn func()) {
	c.mu.Lock()
	c.registered++
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer func() {
			c.mu.Lock()
			c.registered--
			c.maybeAutoAdvance()
			c.mu.Unlock()
			c.wg.Done()
		}()
		fn()
	}()
}

// Wait blocks until every simulated goroutine started with Go has
// returned.
func (c *Clock) Wait() { c.wg.Wait() }

// Sleep blocks the calling goroutine for d virtual ticks. On an
// auto-advance clock, when every goroutine registered with Go is asleep the
// clock advances itself to the earliest wake-up; on a manual clock the
// sleeper waits for someone to Advance past its deadline. d <= 0 returns
// immediately.
func (c *Clock) Sleep(d int64) {
	if d <= 0 {
		return
	}
	done := make(chan struct{})
	c.mu.Lock()
	t := &Timer{when: c.now + d, seq: c.seq, fn: func() { close(done) }}
	c.seq++
	c.push(t)
	c.sleeping++
	c.maybeAutoAdvance()
	c.mu.Unlock()
	<-done
	c.mu.Lock()
	c.sleeping--
	c.mu.Unlock()
}

// maybeAutoAdvance fires the earliest pending timers when every registered
// simulated goroutine is blocked in Sleep. Called with the lock held.
func (c *Clock) maybeAutoAdvance() {
	for c.auto && c.registered > 0 && c.sleeping >= c.registered && len(c.heap) > 0 {
		target := c.heap[0].when
		before := c.sleeping
		c.advanceLocked(target)
		if c.sleeping == before {
			// The fired timers woke no sleeper yet (wake-ups are
			// asynchronous); let the woken goroutines reduce sleeping
			// before advancing further.
			break
		}
	}
}

// Timer heap: min-heap ordered by (when, seq).

func (c *Clock) less(i, j int) bool {
	a, b := c.heap[i], c.heap[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (c *Clock) swap(i, j int) {
	c.heap[i], c.heap[j] = c.heap[j], c.heap[i]
	c.heap[i].index = i
	c.heap[j].index = j
}

func (c *Clock) push(t *Timer) {
	t.index = len(c.heap)
	c.heap = append(c.heap, t)
	c.up(t.index)
}

func (c *Clock) pop() *Timer {
	t := c.heap[0]
	last := len(c.heap) - 1
	c.swap(0, last)
	c.heap = c.heap[:last]
	if last > 0 {
		c.down(0)
	}
	t.index = -1
	return t
}

func (c *Clock) remove(t *Timer) {
	i := t.index
	last := len(c.heap) - 1
	c.swap(i, last)
	c.heap = c.heap[:last]
	if i < last {
		c.down(i)
		c.up(i)
	}
	t.index = -1
}

func (c *Clock) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			break
		}
		c.swap(i, parent)
		i = parent
	}
}

func (c *Clock) down(i int) {
	n := len(c.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && c.less(l, smallest) {
			smallest = l
		}
		if r < n && c.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		c.swap(i, smallest)
		i = smallest
	}
}
