package engine

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
)

// instanceKey digests the request components that determine the
// per-function DTSP instances: the module, the profile (mode and bytes)
// and the machine model. It is the warm-start cache key as is — the
// Held-Karp dual state is a property of the instance, portable across
// every request shape that bounds it (that portability is the whole
// point of the cache: a re-request with a different seed, algorithm or
// budget resumes the ascent instead of re-climbing from zero) — and the
// prefix of requestKey, so a request serializes its module and profile
// once.
func instanceKey(req Request) (string, error) {
	h := sha256.New()
	io.WriteString(h, req.Module.String())
	// The profile mode is a structural key component: a static-profile
	// request hashes the mode tag instead of profile bytes (the estimate
	// is a pure function of the module), and a measured request hashes
	// the profile bytes under a different tag — so estimated and measured
	// results can never collide, even if the estimator ever reproduced a
	// measured profile bit for bit.
	if req.StaticProfile {
		io.WriteString(h, "|pmode=static")
	} else {
		io.WriteString(h, "|pmode=measured|")
		if err := req.Profile.WriteJSON(h); err != nil {
			return "", fmt.Errorf("engine: hashing profile: %w", err)
		}
	}
	// machine.Model is all scalars, so its fmt image is a faithful key
	// component.
	fmt.Fprintf(h, "|model=%+v", req.Model)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// requestKey derives the cache/deduplication key for a request from its
// instance key plus everything else that determines the computed
// layout: the algorithm (different aligners are different computations
// over the same inputs), the solver seed, the budget's work caps and the
// bound settings. The budget's wall-clock deadline, the telemetry sink
// and the solver parallelism are deliberately excluded: they change
// when (and how observably) the answer arrives, not what the answer is.
// Parallelism in particular must not fragment the LRU — the solver is
// bit-identical at every setting, so a sequentially solved entry is
// served to a parallel request and vice versa
// (TestCacheKeyIgnoresParallelism pins this).
func requestKey(inst string, req Request) string {
	return fmt.Sprintf("%s|alg=%s|seed=%d|kicks=%d|hkiters=%d|bound=%v|iters=%d",
		inst, req.Algorithm, req.Seed, req.Budget.MaxKicks, req.Budget.MaxHKIterations,
		req.Bound, req.HKIterations)
}

// profileKey digests the inputs a measured run of p consumes: the
// profile-cache key (see Engine.Load). A benchmark is keyed by its
// canonical name and resolved data set, so an abbreviation and the full
// name share an entry, as do an empty data set and the first one. A
// source program is keyed by its text, its data and its effective n
// (len(data) when n is absent). Variable-length components are length
// prefixed, so distinct inputs never serialize alike.
func profileKey(p Program) (string, error) {
	h := sha256.New()
	if p.Bench != "" {
		b, ds, err := p.bench()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "bench=%d:%s|dataset=%d:%s", len(b.Name), b.Name, len(ds.Name), ds.Name)
	} else {
		fmt.Fprintf(h, "source=%d:%s|data=%d:", len(p.Source), p.Source, len(p.Data))
		// Writes to a hash never fail.
		_ = binary.Write(h, binary.LittleEndian, p.Data)
		fmt.Fprintf(h, "|n=%d", p.n())
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// lru is a minimal least-recently-used cache. The engine keeps three:
// one over *Result (the result cache), one over warm-start dual states
// and one over loaded programs (the profile cache).
// Callers hold the engine mutex; lru itself is not safe for concurrent
// use.
type lru[V any] struct {
	max   int
	order *list.List // front = most recent; values are *lruEntry[V]
	byKey map[string]*list.Element
	// onEvict, when non-nil, observes each capacity eviction (not
	// replacements of an existing key) — the metrics-plane hook.
	onEvict func()
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{max: max, order: list.New(), byKey: map[string]*list.Element{}}
}

// len returns the number of cached entries.
func (c *lru[V]) len() int { return c.order.Len() }

func (c *lru[V]) get(key string) (V, bool) {
	var zero V
	if c.max <= 0 {
		return zero, false
	}
	el, ok := c.byKey[key]
	if !ok {
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

func (c *lru[V]) put(key string, val V) {
	if c.max <= 0 {
		return
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*lruEntry[V]).key)
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}
