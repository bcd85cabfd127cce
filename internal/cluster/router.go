package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"mcn/internal/wire"
)

// Policy selects which available backend a query is proxied to first, and
// the failover order behind it. There is one.
type Policy int

// PolicyHash routes by consistent hashing on the canonicalized query key, so
// repeats of the same query land on the same replica and hit its result
// cache. Failover walks the ring to the next distinct replica.
const PolicyHash Policy = 0

func (p Policy) String() string {
	if p == PolicyHash {
		return "hash"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a -policy flag value.
func ParsePolicy(s string) (Policy, error) {
	if s == "hash" {
		return PolicyHash, nil
	}
	return 0, fmt.Errorf("cluster: unknown routing policy %q (want hash)", s)
}

// CanonicalKey is the routing key of a decoded request: its GET rendering —
// parameters sorted, floats in shortest form — without timeout_ms, which
// changes delivery, not the answer (as stream=1 does, which a Request never
// carries). A streamed and a buffered run of the same query, on any codec,
// so share a replica; a stream never reads the result cache. Like each
// replica's own result-cache key, it keeps the weights as given, so a
// repeated query reaches the replica that cached its answer, which is what
// makes hash affinity pay off.
func CanonicalKey(q *wire.Request) string {
	key := *q
	key.TimeoutMS = 0
	return key.URI()
}

const ringVnodes = 64

type ringEntry struct {
	hash uint64
	b    *Backend
}

// Router orders the available backends for a given query key on the hash
// ring. It is immutable after construction; health is read from the
// membership at lookup time.
type Router struct {
	policy Policy
	ring   []ringEntry
}

// NewRouter builds a router over the membership's full backend set. The hash
// ring places ringVnodes virtual nodes per backend so load stays near-uniform
// with few replicas.
func NewRouter(m *Membership, policy Policy) *Router {
	r := &Router{policy: policy}
	for _, b := range m.Backends() {
		for i := 0; i < ringVnodes; i++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", b.URL(), i)
			r.ring = append(r.ring, ringEntry{hash: h.Sum64(), b: b})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool { return r.ring[i].hash < r.ring[j].hash })
	return r
}

// Policy returns the configured routing policy.
func (r *Router) Policy() Policy { return r.policy }

// Candidates returns the available backends in preference order for key:
// the distinct available backends in ring order from the key's position,
// primary first, then the failover sequence. Empty when no backend is
// available.
func (r *Router) Candidates(key string, available []*Backend) []*Backend {
	if len(available) == 0 {
		return nil
	}
	avail := make(map[*Backend]bool, len(available))
	for _, b := range available {
		avail[b] = true
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	target := h.Sum64()
	start := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= target })
	out := make([]*Backend, 0, len(available))
	seen := make(map[*Backend]bool, len(available))
	for i := 0; i < len(r.ring) && len(out) < len(available); i++ {
		e := r.ring[(start+i)%len(r.ring)]
		if seen[e.b] || !avail[e.b] {
			continue
		}
		seen[e.b] = true
		out = append(out, e.b)
	}
	return out
}
