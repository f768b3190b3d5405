// Package service implements the long-lived federation service behind
// cmd/xqd: a query front end that holds warm transports, caches decomposed
// plans across queries (keyed by query shape and shard-map epoch),
// and guards the engine with admission control — a capacity semaphore plus
// a bounded wait queue with a queue-time budget — so offered load beyond
// capacity is shed fast with a typed overload fault instead of collapsing
// every query's latency. Admitted queries run under per-query wall-time
// budgets (core.Budget) with adaptive hedging fed by a shared
// xrpc.HealthTracker.
package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distxq/internal/core"
	"distxq/internal/eval"
	"distxq/internal/peer"
	"distxq/internal/trace"
	"distxq/internal/xdm"
	"distxq/internal/xq"
	"distxq/internal/xrpc"
)

// Defaults of Config's knobs.
const (
	DefaultMaxConcurrent = 8
	DefaultMaxQueueWait  = 100 * time.Millisecond
	DefaultPlanCacheSize = 128
)

// Config tunes the service's admission control and execution.
type Config struct {
	// MaxConcurrent bounds queries executing at once (the capacity tokens);
	// zero means DefaultMaxConcurrent.
	MaxConcurrent int
	// MaxQueue bounds queries waiting for a token beyond capacity; a query
	// arriving to a full queue is shed immediately. Zero means
	// 2*MaxConcurrent; negative disables queueing (shed at capacity).
	MaxQueue int
	// MaxQueueWait caps how long an admitted-to-queue query may wait for a
	// token; a budgeted query waits at most min(MaxQueueWait, budget/10).
	// Zero means DefaultMaxQueueWait.
	MaxQueueWait time.Duration
	// DefaultBudget applies to queries submitted without one; the zero
	// budget leaves them unbounded.
	DefaultBudget core.Budget
	// Streamed executes scatter dispatch through the streaming client.
	Streamed bool
	// PlanCacheSize bounds the decomposed-plan cache; zero means
	// DefaultPlanCacheSize.
	PlanCacheSize int
	// Trace records a span tree per query — admission, planning (cache
	// hit/miss), compilation, execution, every dispatch lane and attempt, and
	// the server-side spans remote peers piggy-back on their responses — and
	// retains recent and slowest trees in Traces. Off by default; the
	// disabled path costs a few nil checks per span site.
	Trace bool
	// TraceRing bounds the recent-traces ring; zero means
	// trace.DefaultRingSize.
	TraceRing int
}

func (c Config) maxConcurrent() int {
	if c.MaxConcurrent > 0 {
		return c.MaxConcurrent
	}
	return DefaultMaxConcurrent
}

func (c Config) maxQueue() int {
	switch {
	case c.MaxQueue > 0:
		return c.MaxQueue
	case c.MaxQueue < 0:
		return 0
	}
	return 2 * c.maxConcurrent()
}

func (c Config) maxQueueWait() time.Duration {
	if c.MaxQueueWait > 0 {
		return c.MaxQueueWait
	}
	return DefaultMaxQueueWait
}

// Stats is a snapshot of the service counters.
type Stats struct {
	// Admitted counts queries that got a capacity token (immediately or
	// after queueing); Shed counts queries rejected by admission control —
	// full queue or spent queue-time budget.
	Admitted int64
	Shed     int64
	// Completed/Failed partition the admitted queries by outcome;
	// DeadlineExceeded counts the Failed subset that blew its budget.
	Completed        int64
	Failed           int64
	DeadlineExceeded int64
	// PlanHits/PlanMisses count plan-cache lookups.
	PlanHits   int64
	PlanMisses int64
}

// Service executes queries for one originator peer over a federation, with
// admission control, plan caching, budgets, and adaptive hedging. Safe for
// concurrent use.
type Service struct {
	cfg      Config
	net      *peer.Network
	origin   *peer.Peer
	strategy core.Strategy
	// Health is the shared latency tracker driving adaptive hedging; one
	// tracker accumulates observations across every query of the service.
	Health *xrpc.HealthTracker
	// Replicas maps scatter targets to ordered failover replicas for
	// hand-written variable-target loops (see peer.Session.Replicas). Set
	// before serving queries.
	Replicas map[string][]string
	// Traces retains recent and slowest query span trees when Config.Trace
	// is on (nil otherwise) — the store behind xqd's /debug/traces.
	Traces *trace.Ring

	retry *xrpc.RetryPolicy
	sem   chan struct{}

	// xmetrics and evalStats aggregate every query's transport and evaluation
	// counters across the service's lifetime — the /metrics feed. Counters
	// only: nothing in them grows with the number of queries served.
	xmetrics  *xrpc.Metrics
	evalStats *eval.StatsSink

	mu     sync.Mutex
	shards []core.ShardMap
	epoch  int64

	queued atomic.Int64
	plans  *planCache

	admitted, shed, completed, failed, deadline atomic.Int64
	planHits, planMisses                        atomic.Int64
}

// New creates a service originating queries at origin under one strategy.
func New(net *peer.Network, origin *peer.Peer, strat core.Strategy, cfg Config) *Service {
	s := &Service{
		cfg:       cfg,
		net:       net,
		origin:    origin,
		strategy:  strat,
		Health:    xrpc.NewHealthTracker(),
		sem:       make(chan struct{}, cfg.maxConcurrent()),
		plans:     newPlanCache(cfg.PlanCacheSize),
		xmetrics:  &xrpc.Metrics{},
		evalStats: &eval.StatsSink{},
	}
	if cfg.Trace {
		s.Traces = trace.NewRing(cfg.TraceRing)
	}
	return s
}

// UseRetry installs the retry/hedging policy applied to every query.
func (s *Service) UseRetry(pol *xrpc.RetryPolicy) *Service {
	s.retry = pol
	return s
}

// UseShards installs shard maps, replacing any map already installed for the
// same logical document, and bumps the shard-map epoch: cached plans
// decomposed under the old maps stop matching and are re-planned on demand.
func (s *Service) UseShards(maps ...core.ShardMap) *Service {
	s.mu.Lock()
	s.shards = core.InstallShards(s.shards, maps...)
	s.epoch++
	s.mu.Unlock()
	return s
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	return Stats{
		Admitted:         s.admitted.Load(),
		Shed:             s.shed.Load(),
		Completed:        s.completed.Load(),
		Failed:           s.failed.Load(),
		DeadlineExceeded: s.deadline.Load(),
		PlanHits:         s.planHits.Load(),
		PlanMisses:       s.planMisses.Load(),
	}
}

// admit acquires a capacity token, queueing up to the queue-time budget.
// The returned release must be called when the query finishes. A nil
// release means the query was shed; the error matches xrpc.ErrOverloaded.
func (s *Service) admit(budget core.Budget) (release func(), err error) {
	release = func() { <-s.sem }
	select {
	case s.sem <- struct{}{}:
		return release, nil
	default:
	}
	if max := int64(s.cfg.maxQueue()); s.queued.Add(1) > max {
		s.queued.Add(-1)
		return nil, fmt.Errorf("service: admission queue full: %w", xrpc.ErrOverloaded)
	}
	defer s.queued.Add(-1)
	wait := s.cfg.maxQueueWait()
	if qa := budget.QueueAllowance(); qa > 0 && qa < wait {
		wait = qa
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return release, nil
	case <-t.C:
		return nil, fmt.Errorf("service: queue-time budget (%v) spent: %w", wait, xrpc.ErrOverloaded)
	}
}

// plan returns the decomposed plan of query source and the arguments its
// holes read, from the cache when a text of its shape (xq.AppendShapeKey) was
// planned under the current shard-map epoch; concurrent first arrivals of
// one shape share a single build. A cached plan's AST is normalized once,
// before publication, and shared read-only. It compiles once, on its first
// hit: a miss executes on a lowering of its own and retains no Program.
func (s *Service) plan(src string, sp trace.SpanRef) (*core.Plan, []core.ShardMap, []xdm.Atomic, error) {
	s.mu.Lock()
	shards, epoch := s.shards, s.epoch
	s.mu.Unlock()
	var buf [512]byte
	key, args := xq.AppendShapeKey(append(binary.AppendVarint(buf[:0], epoch), byte(s.strategy)), src)
	entry, hit, err := s.plans.load(key, func() (*cachedPlan, error) {
		q, exact, err := xq.ParseTemplate(src, "")
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.Shards = shards
		if len(shards) > 0 {
			opts.KnownPeers = s.net.PeerNames()
		}
		plan, err := core.Decompose(q, s.strategy, opts)
		if err != nil {
			return nil, err
		}
		if err := xq.Normalize(plan.Query); err != nil {
			return nil, err
		}
		return &cachedPlan{plan: plan, epoch: epoch, exact: exact}, nil
	})
	if hit {
		s.planHits.Add(1)
		sp.Set(trace.Str("cache", "hit"))
		// The Program pins to the plan's query object, so every execution
		// of this entry from here on — concurrent first hits included, which
		// wait here — runs the one lowering, and a new epoch's plan compiles
		// afresh against the new shard maps. Reuse is proven here, so the
		// shipped modules are rendered once here too. The query normalized
		// before publication, so lowering cannot fail.
		entry.reused.Do(func() {
			if _, err := eval.CompileTraced(entry.plan.Query, sp); err == nil {
				s.evalStats.Add(eval.Stats{Compilations: 1})
			}
			retainModules(entry.plan.Query)
		})
	} else {
		s.planMisses.Add(1)
		sp.Set(trace.Str("cache", "miss"))
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return entry.plan, shards, args, nil
}

// retainModules is xrpc.RetainModules; tests count its calls through it.
var retainModules = xrpc.RetainModules

// Query admits, plans and executes one query under a wall-time budget (the
// zero budget takes Config.DefaultBudget). Shed queries fail fast with an
// error matching xrpc.ErrOverloaded; queries that blow their budget fail
// with one matching xrpc.ErrDeadlineExceeded.
func (s *Service) Query(src string, budget core.Budget) (xdm.Sequence, *peer.Report, error) {
	if budget.Zero() {
		budget = s.cfg.DefaultBudget
	}
	// The root span covers the whole query; finish ends it and publishes the
	// tree to the ring whatever the outcome — shed and failed queries are the
	// ones worth inspecting.
	var root trace.SpanRef
	if s.Traces != nil {
		tr := trace.New(0, s.origin.Name)
		root = tr.Start(0, "query", trace.Str("strategy", s.strategy.String()))
	}
	finish := func(err error) {
		if !root.Active() {
			return
		}
		root.EndErr(err)
		s.Traces.Add(root.Trace())
	}
	asp := root.Child("admission")
	release, err := s.admit(budget)
	asp.EndErr(err)
	if err != nil {
		s.shed.Add(1)
		finish(err)
		return nil, nil, err
	}
	defer release()
	s.admitted.Add(1)
	psp := root.Child("plan")
	plan, shards, holes, err := s.plan(src, psp)
	psp.EndErr(err)
	if err != nil {
		s.failed.Add(1)
		finish(err)
		return nil, nil, err
	}
	sess := s.net.NewSession(s.origin, s.strategy).
		UseBudget(budget).
		UseRetry(s.retry).
		UseHealth(s.Health).
		UseTrace(root)
	sess.Streamed = s.cfg.Streamed
	sess.Shards = shards
	sess.Holes = holes
	sess.Replicas = s.Replicas
	sess.AggMetrics = s.xmetrics
	sess.AggEval = s.evalStats
	res, rep, err := sess.ExecutePlan(plan)
	if err != nil {
		s.failed.Add(1)
		if errors.Is(err, xrpc.ErrDeadlineExceeded) {
			s.deadline.Add(1)
		}
		finish(err)
		return nil, rep, err
	}
	s.completed.Add(1)
	finish(nil)
	return res, rep, nil
}

// PeerHealth returns the shared health tracker's per-peer state.
func (s *Service) PeerHealth() map[string]xrpc.PeerHealthState { return s.Health.SnapshotAll() }
