// Package cluster implements knowrouter, the sharded front for a fleet of
// knowd daemons. Sessions are placed by weighted rendezvous-hashing their
// system spec (muddy:N, scenario:regime, attack — the workload families
// partition naturally by spec), so every router instance computes the same
// placement with no coordination and losing a shard reshuffles only that
// shard's keys.
//
// The design premise comes straight from the source paper: over unreliable
// communication the router can never *know* a shard's state, only act on
// stale evidence — health probes, breaker telemetry, timeouts. Every
// mechanism here is shaped by that:
//
//   - active health checks eject a shard after consecutive probe failures
//     and re-admit it through a half-open probe, sharing client.Breaker
//     and its cooldown with the data path (whose breaker it also reads);
//   - a dead shard's sessions fail over by replaying their announcement
//     sources on a successor; the announce-link CAS makes the replayed
//     chain advance exactly-once even when the "dead" shard had already
//     applied the announcement before the router lost its answer;
//   - every request, read or mutation, goes to the session's primary and
//     fails over once on a transport error or a lost session; a warm
//     standby replica, caught up after each announcement, turns that
//     failover into an in-place handoff rather than a replay;
//   - reconcile makes a shard hold exactly the replicas the router maps
//     there: it closes strays left by failovers away from a
//     partitioned-but-alive shard and repairs replicas the shard lost;
//   - per-shard 429/503 shed counts decay into a routing-weight penalty,
//     so a shedding shard drains load instead of melting.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/url"
	"strconv"
	"strings"
	"unicode"
)

// Shard is one knowd upstream: a stable ID (the rendezvous identity), its
// base URL, and a static routing weight.
type Shard struct {
	ID     string
	Addr   string
	Weight int
}

// maxWeight bounds a shard's static weight; anything above it is almost
// certainly a typo and would drown out every other shard.
const maxWeight = 1 << 20

// ParseShards parses a knowrouter shard list: comma-separated
// "id[*weight]=addr" entries, e.g.
//
//	n1=http://127.0.0.1:7501,n2*2=http://127.0.0.1:7502
//
// Weight defaults to 1 and must be an integer in [1, 1<<20] — a
// zero-weight shard is a configuration error, not a soft-disabled entry.
// IDs must be unique, non-empty, and free of whitespace and '*'; addresses
// must be bare absolute http(s) URLs (scheme://host[:port]) — no
// credentials, path, query, or fragment. The returned addresses are
// normalized to exactly scheme://host.
func ParseShards(spec string) ([]Shard, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("cluster: empty shard list")
	}
	seen := make(map[string]bool)
	var out []Shard
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("cluster: empty shard entry in %q", spec)
		}
		name, addr, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: shard %q: want id[*weight]=addr", entry)
		}
		id := strings.TrimSpace(name)
		weight := 1
		if base, ws, hasWeight := strings.Cut(name, "*"); hasWeight {
			id = strings.TrimSpace(base)
			n, err := strconv.Atoi(strings.TrimSpace(ws))
			if err != nil {
				return nil, fmt.Errorf("cluster: shard %q: bad weight %q", entry, strings.TrimSpace(ws))
			}
			if n < 1 {
				return nil, fmt.Errorf("cluster: shard %q: weight must be >= 1 (zero-weight shards are configuration errors)", entry)
			}
			if n > maxWeight {
				return nil, fmt.Errorf("cluster: shard %q: weight %d exceeds the %d cap", entry, n, maxWeight)
			}
			weight = n
		}
		if id == "" {
			return nil, fmt.Errorf("cluster: shard %q: empty id", entry)
		}
		if strings.ContainsRune(id, '*') || strings.IndexFunc(id, unicode.IsSpace) >= 0 {
			return nil, fmt.Errorf("cluster: shard %q: id %q contains whitespace or '*'", entry, id)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate shard id %q", id)
		}
		seen[id] = true
		u, err := url.Parse(strings.TrimSpace(addr))
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %q: bad address: %v", entry, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: shard %q: address must be an absolute http(s) URL with a host", entry)
		}
		if u.User != nil || u.Opaque != "" || (u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.Fragment != "" {
			return nil, fmt.Errorf("cluster: shard %q: address must not carry credentials, path, query, or fragment", entry)
		}
		out = append(out, Shard{ID: id, Addr: u.Scheme + "://" + u.Host, Weight: weight})
	}
	return out, nil
}

// FormatShards renders shards back into ParseShards syntax (round-trip
// helper for logs and the fuzz oracle).
func FormatShards(shards []Shard) string {
	parts := make([]string, len(shards))
	for i, sh := range shards {
		if sh.Weight == 1 {
			parts[i] = sh.ID + "=" + sh.Addr
		} else {
			parts[i] = fmt.Sprintf("%s*%d=%s", sh.ID, sh.Weight, sh.Addr)
		}
	}
	return strings.Join(parts, ",")
}

// shardKeyHash mixes a (shard, key) pair into 64 uniform bits: FNV-1a over
// "id\x00key" pushed through the splitmix64 finalizer (FNV alone is too
// linear in its tail for rendezvous scores).
func shardKeyHash(shardID, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(shardID))
	h.Write([]byte{0})
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rendezvousScore is the weighted rendezvous (highest-random-weight) score
// of shard for key: -w/ln(u) with u uniform in (0,1) derived from the
// (shard, key) hash. Every router computes identical scores, the argmax is
// distributed ~proportionally to weights, and removing a shard never moves
// a key between two surviving shards.
func rendezvousScore(shardID, key string, weight float64) float64 {
	if weight <= 0 {
		return math.Inf(-1)
	}
	u := (float64(shardKeyHash(shardID, key)>>11) + 0.5) / (1 << 53)
	return -weight / math.Log(u)
}
