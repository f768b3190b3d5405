package peer

import (
	"fmt"
	"sync"
	"testing"

	"distxq/internal/core"
	"distxq/internal/eval"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// planReuse stands in for the service's plan cache in harnesses that drive
// sessions directly (this package cannot import the service): one plan per
// (strategy, source), run cold when first planned and compiled on its
// first reuse. Repeating a query through it therefore takes the
// originator from cold to retained execution exactly as a served query
// does, while the peers cross through their own module caches.
type planReuse struct {
	mu    sync.Mutex
	plans map[string]*core.Plan
	// misses counts first (cold) executions, compiled the plans
	// lowered on reuse.
	misses, compiled int
}

// query plans src for sess — or reuses, and compiles, the plan of an earlier
// call — and executes it on sess. The key ignores shard maps: a source must
// always be sent on sessions carrying the same maps.
func (r *planReuse) query(sess *Session, src string) (xdm.Sequence, *Report, error) {
	plan, err := r.plan(sess, src)
	if err != nil {
		return nil, nil, err
	}
	return sess.ExecutePlan(plan)
}

func (r *planReuse) plan(sess *Session, src string) (*core.Plan, error) {
	key := fmt.Sprintf("%d|%s", sess.Strategy, src)
	r.mu.Lock()
	defer r.mu.Unlock()
	if plan := r.plans[key]; plan != nil {
		if plan.Query.CompiledArtifact() == nil {
			if _, err := eval.CompileQuery(plan.Query); err != nil {
				return nil, err
			}
			r.compiled++
		}
		return plan, nil
	}
	q, err := xq.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Shards = sess.Shards
	if len(sess.Shards) > 0 {
		opts.KnownPeers = sess.net.PeerNames()
	}
	plan, err := core.Decompose(q, sess.Strategy, opts)
	if err == nil {
		err = xq.Normalize(plan.Query)
	}
	if err != nil {
		return nil, err
	}
	if r.plans == nil {
		r.plans = map[string]*core.Plan{}
	}
	r.plans[key] = plan
	r.misses++
	return plan, nil
}

// sender returns how a harness sends queries on sess: through r's plan
// reuse, or — for a nil r — through the plain session, which plans every
// query afresh, so its originator never retains a Program.
func (r *planReuse) sender(sess *Session) func(src string) (xdm.Sequence, *Report, error) {
	if r == nil {
		return sess.Query
	}
	return func(src string) (xdm.Sequence, *Report, error) { return r.query(sess, src) }
}

// requireBothExecutors is the harness's non-vacuity check: the originator
// ran cold first executions and compiled reused plans, and at least one of
// the given peer engines compiled a shipped module (on its second
// sighting; a first sighting lowers for that call only).
func (r *planReuse) requireBothExecutors(t *testing.T, peerEngines ...*eval.Engine) {
	t.Helper()
	r.mu.Lock()
	misses, compiled := r.misses, r.compiled
	r.mu.Unlock()
	if misses == 0 || compiled == 0 {
		t.Errorf("originator ran %d cold first executions and compiled %d reused plans; the harness must exercise both", misses, compiled)
	}
	for _, e := range peerEngines {
		if e.StatsSnapshot().Compilations > 0 {
			return
		}
	}
	t.Errorf("none of %d peer engines compiled a shipped module: no module was sent twice", len(peerEngines))
}

// engines returns the engines of every in-process peer, dead ones included.
func (n *Network) engines() []*eval.Engine {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []*eval.Engine
	for _, p := range n.peers {
		out = append(out, p.Engine)
	}
	for _, p := range n.dead {
		out = append(out, p.Engine)
	}
	return out
}
