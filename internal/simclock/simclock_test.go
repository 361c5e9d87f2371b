package simclock

import (
	"sync"
	"testing"
)

func TestAdvanceFiresInDeadlineOrder(t *testing.T) {
	c := New(0)
	var fired []int
	mustAfter := func(d int64, id int) *Timer {
		tm, err := c.AfterFunc(d, func() { fired = append(fired, id) })
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}
	mustAfter(5, 1)
	mustAfter(2, 2)
	mustAfter(2, 3) // same deadline: scheduling order breaks the tie
	mustAfter(9, 4)
	if err := c.Advance(5); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 3, 1}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if c.Now() != 5 {
		t.Fatalf("now = %d, want 5", c.Now())
	}
	if c.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", c.Pending())
	}
}

func TestMonotonicity(t *testing.T) {
	c := New(10)
	if err := c.Advance(-1); err == nil {
		t.Fatal("Advance(-1) should fail")
	}
	if err := c.AdvanceTo(9); err == nil {
		t.Fatal("AdvanceTo into the past should fail")
	}
	if _, err := c.AfterFunc(-3, func() {}); err == nil {
		t.Fatal("negative AfterFunc delay should fail")
	}
	if _, err := c.At(5, func() {}); err == nil {
		t.Fatal("At in the past should fail")
	}
	if c.Now() != 10 {
		t.Fatalf("failed calls must not move time; now = %d", c.Now())
	}
}

func TestStepAndNextDeadline(t *testing.T) {
	c := New(0)
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("empty clock has no deadline")
	}
	if now, ok := c.Step(); ok || now != 0 {
		t.Fatalf("Step on empty clock = (%d, %v)", now, ok)
	}
	hits := 0
	if _, err := c.AfterFunc(4, func() { hits++ }); err != nil {
		t.Fatal(err)
	}
	if d, ok := c.NextDeadline(); !ok || d != 4 {
		t.Fatalf("NextDeadline = (%d, %v), want (4, true)", d, ok)
	}
	if now, ok := c.Step(); !ok || now != 4 || hits != 1 {
		t.Fatalf("Step = (%d, %v), hits = %d", now, ok, hits)
	}
}

func TestStopPreventsFiring(t *testing.T) {
	c := New(0)
	fired := false
	tm, err := c.AfterFunc(3, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if !c.Stop(tm) {
		t.Fatal("Stop should report success before firing")
	}
	if c.Stop(tm) {
		t.Fatal("second Stop should report failure")
	}
	if err := c.Advance(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestCallbackMaySchedule(t *testing.T) {
	// A timer callback scheduling another timer inside the advance window
	// fires within the same sweep, at its own deadline.
	c := New(0)
	var fired []int64
	if _, err := c.AfterFunc(2, func() {
		fired = append(fired, c.Now())
		if _, err := c.AfterFunc(3, func() { fired = append(fired, c.Now()) }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(10); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 5 {
		t.Fatalf("fired at %v, want [2 5]", fired)
	}
}

func TestAutoAdvanceTwoSleepers(t *testing.T) {
	// Two simulated goroutines ping-pong through Sleep; the clock advances
	// by itself whenever both are blocked, so the whole exchange needs no
	// explicit Advance calls.
	c := NewAuto(0)
	var mu sync.Mutex
	var wakes []int64
	record := func() {
		mu.Lock()
		wakes = append(wakes, c.Now())
		mu.Unlock()
	}
	// Auto-advance counts only goroutines already registered, so both
	// bodies wait on start until the second Go has run: otherwise the
	// first could sleep alone and take the clock to 7 before the second
	// is registered, which would then sleep from 7.
	start := make(chan struct{})
	c.Go(func() {
		<-start
		c.Sleep(3)
		record()
		c.Sleep(4) // wakes at 7
		record()
	})
	c.Go(func() {
		<-start
		c.Sleep(5)
		record()
	})
	close(start)
	c.Wait()
	if c.Now() != 7 {
		t.Fatalf("now = %d, want 7", c.Now())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(wakes) != 3 {
		t.Fatalf("wakes = %v, want 3 entries", wakes)
	}
	seen := map[int64]bool{}
	for _, w := range wakes {
		seen[w] = true
	}
	for _, want := range []int64{3, 5, 7} {
		if !seen[want] {
			t.Fatalf("missing wake at %d: %v", want, wakes)
		}
	}
}

func TestManualClockWakesSleepers(t *testing.T) {
	c := New(0)
	done := make(chan int64, 1)
	c.Go(func() {
		c.Sleep(6)
		done <- c.Now()
	})
	// The sleeper blocks until someone advances a manual clock past its
	// deadline.
	for c.Pending() == 0 {
		// Wait for the sleeper to register its wake-up timer.
	}
	if err := c.Advance(6); err != nil {
		t.Fatal(err)
	}
	if at := <-done; at != 6 {
		t.Fatalf("woke at %d, want 6", at)
	}
	c.Wait()
}
