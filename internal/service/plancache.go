package service

import (
	"errors"
	"sync"

	"distxq/internal/core"
)

// cachedPlan is one plan-cache entry. The plan is immutable after
// publication; the key's shard-map epoch guarantees it (and the Program its
// query may come to carry) can never execute against shard maps it was not
// planned under.
type cachedPlan struct {
	plan *core.Plan
	// epoch is the shard-map epoch the plan was decomposed under (also
	// embedded in the key). Inserting an entry of a newer epoch evicts every
	// entry below it: superseded-epoch plans can never match again, so they
	// would only displace live entries while aging out.
	epoch int64
	// reused runs the entry's one compilation, on its first hit: a hit proves
	// the plan is executed more than once, which is what lowering it pays
	// for, and a working set that only ever misses never compiles.
	reused sync.Once
	exact  bool // every hole landed on a literal (else it serves its builder only)
}

// planCache is a bounded insert-order cache of decomposed plans. Keys embed the shard-map epoch, so a shard-map change
// invalidates by never matching again; stale entries age out through
// insertion-order eviction.
type planCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cachedPlan
	order   []string
	// flights holds the in-progress build of each key being planned: the
	// concurrent first arrivals of one key wait for it instead of each
	// planning the same query.
	flights map[string]*planFlight
}

// planFlight is one in-progress plan build; plan and err are final once done
// closes.
type planFlight struct {
	done chan struct{}
	plan *cachedPlan
	err  error
}

var errPlanAborted = errors.New("service: plan build aborted")

func newPlanCache(max int) *planCache {
	if max <= 0 {
		max = DefaultPlanCacheSize
	}
	return &planCache{max: max, entries: map[string]*cachedPlan{}, flights: map[string]*planFlight{}}
}

// load returns the plan cached under key, building and publishing it on a
// miss. Concurrent misses of one key share a single build: the first arrival
// runs it, the others wait and count as hits once it publishes. A failed
// build is handed to its waiters but not cached; a waiter on a plan that is
// not exact builds its own. Only a miss copies key.
func (c *planCache) load(k []byte, build func() (*cachedPlan, error)) (p *cachedPlan, hit bool, err error) {
	c.mu.Lock()
	if p, ok := c.entries[string(k)]; ok {
		c.mu.Unlock()
		return p, true, nil
	}
	if f, ok := c.flights[string(k)]; ok {
		c.mu.Unlock()
		if <-f.done; f.err == nil && !f.plan.exact {
			return c.load(k, build)
		}
		return f.plan, f.err == nil, f.err
	}
	key := string(k)
	f := &planFlight{done: make(chan struct{}), err: errPlanAborted}
	c.flights[key] = f
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil && f.plan.exact {
			c.putLocked(key, f.plan)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.plan, f.err = build()
	return f.plan, false, f.err
}

func (c *planCache) putLocked(key string, p *cachedPlan) {
	// Evict superseded epochs first: a shard-map change strands every entry
	// planned under an older epoch (the key embeds the epoch, so they can
	// never be hit again) — drop them now instead of letting dead plans
	// crowd live ones out of the bounded cache.
	for i := 0; i < len(c.order); {
		k := c.order[i]
		if c.entries[k].epoch < p.epoch {
			delete(c.entries, k)
			c.order = append(c.order[:i], c.order[i+1:]...)
			continue
		}
		i++
	}
	for len(c.entries) >= c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = p
	c.order = append(c.order, key)
}

// Len reports the number of cached plans.
func (c *planCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
