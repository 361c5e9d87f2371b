package cluster

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/client"
)

// HealthConfig carries the checker knobs; zero values mean defaults.
type HealthConfig struct {
	// Every is the probe sweep period. Default 1s.
	Every time.Duration
	// FailAfter ejects a shard after this many consecutive failed probes.
	// Default 3.
	FailAfter int
	// ReadmitAfter is the cooldown an ejected shard sits out before a
	// half-open probe may re-admit it, and the cooldown of each shard's
	// data-path client breaker. Default 5s.
	ReadmitAfter time.Duration
}

const probeTimeout = 2 * time.Second // bounds one health probe

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Every <= 0 {
		c.Every = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 5 * time.Second
	}
	return c
}

// shardHealth is one shard's view from the checker: the probe breaker
// (ejected unless closed) and the decaying shed penalty on routing weight.
type shardHealth struct {
	breaker   client.Breaker
	penalty   float64
	lastSheds int
	// boot is the last incarnation stamp the shard advertised on healthz.
	// A change means the process died and came back between sweeps —
	// possibly faster than FailAfter could ever notice — and every session
	// the router still maps there is gone.
	boot string
}

// ejected reports whether the breaker is not closed, which needs no clock.
func (st *shardHealth) ejected() bool { return st.breaker.State(time.Time{}) != "closed" }

// checker actively health-checks the fleet. Each shard's probe verdicts
// feed a client.Breaker — consecutive failures open it (eject), a cooldown
// ends in a half-open probe, one success closes it (re-admit) — and the
// checker also *reads* each shard's data-path breaker through
// client.Stats, so a shard the data path has already given up on is
// ejected without waiting for FailAfter probe misses. The probe itself is
// a single raw un-retried GET /healthz: a draining daemon answers 503 and
// must be treated as down immediately, which the retrying client path
// would paper over.
type checker struct {
	cfg     HealthConfig
	shards  []Shard
	clients map[string]*client.Client

	// now and tick are injectable exactly like the server janitor's, so
	// tests drive ejection and re-admission from a virtual clock with zero
	// wall-clock sleeps.
	now   func() time.Time
	tick  func(d time.Duration) (<-chan time.Time, func())
	probe func(addr string) (boot string, err error)

	onEject   func(id string)
	onReadmit func(id string)
	onRestart func(id string)
	logf      func(format string, args ...any)

	mu sync.Mutex
	st map[string]*shardHealth

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
}

func newChecker(cfg HealthConfig, shards []Shard, clients map[string]*client.Client, logf func(string, ...any)) *checker {
	cfg = cfg.withDefaults()
	hc := &http.Client{Timeout: probeTimeout}
	c := &checker{
		cfg:     cfg,
		shards:  shards,
		clients: clients,
		now:     time.Now,
		tick: func(d time.Duration) (<-chan time.Time, func()) {
			t := time.NewTicker(d)
			return t.C, t.Stop
		},
		probe: func(addr string) (string, error) { return rawHealthProbe(hc, addr) },
		logf:  logf,
		st:    make(map[string]*shardHealth),
		stop:  make(chan struct{}),
	}
	for _, sh := range shards {
		c.st[sh.ID] = &shardHealth{breaker: client.Breaker{Threshold: cfg.FailAfter, Cooldown: cfg.ReadmitAfter}}
	}
	return c
}

// rawHealthProbe is one un-retried healthz round trip; anything but a 200
// is a failed probe. The shard's incarnation stamp (Knowd-Boot-Id) rides
// back with the verdict so the sweep can spot silent restarts.
func rawHealthProbe(hc *http.Client, addr string) (string, error) {
	resp, err := hc.Get(addr + "/healthz")
	if err != nil {
		return "", err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	resp.Body.Close()
	boot := resp.Header.Get("Knowd-Boot-Id")
	if resp.StatusCode != http.StatusOK {
		return boot, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return boot, nil
}

func (c *checker) start() {
	c.startOnce.Do(func() {
		go func() {
			tc, stop := c.tick(c.cfg.Every)
			defer stop()
			for {
				select {
				case <-c.stop:
					return
				case <-tc:
					c.sweep()
				}
			}
		}()
	})
}

func (c *checker) halt() {
	c.stopOnce.Do(func() { close(c.stop) })
}

// sweep runs one probe round over every shard. Probes happen outside the
// checker mutex; state transitions are applied under it; eject/readmit
// callbacks fire after it is released (they take session locks).
func (c *checker) sweep() {
	now := c.now()
	type verdict struct {
		id    string
		boot  string
		err   error
		stats client.Stats
	}
	verdicts := make([]verdict, 0, len(c.shards))
	for _, sh := range c.shards {
		stats := c.clients[sh.ID].Stats()
		var boot string
		var err error
		if stats.Breaker == "open" {
			// The data path has already opened the breaker on this shard:
			// trust its evidence instead of waiting out probe failures.
			err = fmt.Errorf("data-path breaker open after %d consecutive failures", stats.ConsecutiveFails)
		} else {
			boot, err = c.probe(sh.Addr)
		}
		verdicts = append(verdicts, verdict{sh.ID, boot, err, stats})
	}

	var ejected []verdict
	var readmitted, restarted []string
	c.mu.Lock()
	for _, v := range verdicts {
		st := c.st[v.id]
		// Generation fencing: a healthy probe answering with a new boot id
		// is a shard that died and returned between sweeps. FailAfter never
		// fired, but every session mapped there is gone all the same.
		if v.err == nil && v.boot != "" {
			if st.boot != "" && st.boot != v.boot {
				restarted = append(restarted, v.id)
			}
			st.boot = v.boot
		}
		// Backpressure aggregation: new 429/503 sheds observed by the data
		// path since the last sweep feed a decaying routing-weight penalty.
		delta := v.stats.Sheds - st.lastSheds
		st.lastSheds = v.stats.Sheds
		st.penalty = st.penalty/2 + float64(delta)
		// While the breaker cools down the verdict is ignored; once the
		// cooldown lapses, this sweep's probe is the half-open trial.
		wasOut := st.ejected()
		if st.breaker.Allow(now) {
			st.breaker.Record(v.err == nil, now)
		}
		switch out := st.ejected(); {
		case out && !wasOut:
			ejected = append(ejected, v)
		case !out && wasOut:
			readmitted = append(readmitted, v.id)
		case !out && v.err != nil && c.logf != nil:
			c.logf("health: shard %s probe failed (%d/%d): %v", v.id, st.breaker.Fails(), c.cfg.FailAfter, v.err)
		}
	}
	c.mu.Unlock()

	for _, id := range restarted {
		if c.logf != nil {
			c.logf("health: shard %s advertises a new boot id; its sessions died with the old incarnation", id)
		}
		if c.onRestart != nil {
			c.onRestart(id)
		}
	}
	for _, v := range ejected {
		if c.logf != nil {
			c.logf("health: shard %s ejected: %v", v.id, v.err)
		}
		if c.onEject != nil {
			c.onEject(v.id)
		}
	}
	for _, id := range readmitted {
		if c.logf != nil {
			c.logf("health: shard %s re-admitted by half-open probe", id)
		}
		if c.onReadmit != nil {
			c.onReadmit(id)
		}
	}
}

// usable reports whether the shard is currently routable.
func (c *checker) usable(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.st[id]
	return ok && !st.ejected()
}

// effectiveWeight maps a shard's static weight through its health state:
// zero while ejected, otherwise damped by the decaying shed penalty so a
// shedding shard attracts fewer new sessions.
func (c *checker) effectiveWeight(id string, static int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.st[id]
	if !ok || st.ejected() {
		return 0
	}
	return float64(static) / (1 + st.penalty)
}

// snapshot reports one shard's checker state for stats.
func (c *checker) snapshot(id string) (state string, fails int, penalty float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.st[id]
	if !ok {
		return "unknown", 0, 0
	}
	if st.ejected() {
		return "ejected", st.breaker.Fails(), st.penalty
	}
	return "healthy", st.breaker.Fails(), st.penalty
}
