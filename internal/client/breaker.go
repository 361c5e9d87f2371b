package client

import "time"

// Breaker is the closed/open/half-open circuit breaker shared by the
// Client and the router's health checker. Threshold consecutive failures
// open it; after Cooldown one half-open trial is admitted, whose success
// closes it and whose failure reopens it. Callers hold their own lock.
type Breaker struct {
	Threshold int
	Cooldown  time.Duration

	fails    int       // consecutive failures
	openedAt time.Time // open time; zero when closed
	probing  bool      // the half-open trial is in flight
}

// Allow reports whether an attempt may proceed at now. While open, only
// the single half-open trial after the cooldown is admitted.
func (b *Breaker) Allow(now time.Time) bool {
	if b.openedAt.IsZero() {
		return true
	}
	if b.probing || now.Sub(b.openedAt) < b.Cooldown {
		return false
	}
	b.probing = true // this attempt is the trial
	return true
}

// Record ends an admitted attempt. A success closes the breaker; a failure
// extends the run and (re)opens the breaker at now once it hits Threshold.
func (b *Breaker) Record(ok bool, now time.Time) {
	b.probing = false
	if ok {
		b.fails, b.openedAt = 0, time.Time{}
		return
	}
	b.fails++
	if b.fails >= b.Threshold {
		b.openedAt = now
	}
}

// Release ends an admitted attempt that says nothing about the peer, such
// as a call its caller cancelled: only the trial slot is freed.
func (b *Breaker) Release() { b.probing = false }

// State is "closed", "open", or "half-open" (cooldown elapsed or the trial
// in flight). Whether it is "closed" does not depend on now.
func (b *Breaker) State(now time.Time) string {
	switch {
	case b.openedAt.IsZero():
		return "closed"
	case b.probing || now.Sub(b.openedAt) >= b.Cooldown:
		return "half-open"
	}
	return "open"
}

// Fails is the current run of consecutive failures.
func (b *Breaker) Fails() int { return b.fails }
