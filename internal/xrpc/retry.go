package xrpc

// This file implements per-lane fault tolerance for every dispatch mode: one
// lane runner (runLane) that re-issues a failed exchange to the lane's next
// replica (retry) and races a speculative duplicate against a slow one
// (hedging). The runner owns the rotation, the attempt budget, both timers,
// fault bookkeeping and winner provenance; what one attempt does — a
// gather-whole exchange or a chunk-stream exchange — is a laneAttempt it is
// handed. Attempts race until one commits, the committed attempt alone
// delivers, the losers are cancelled, and the lane's provenance (winning
// replica, retries, hedges, wasted wall time) travels on the Lane record so
// sessions can report tail-tolerance costs. Correctness rests on the
// repo-wide invariant that peers evaluate deterministically: two replicas
// holding byte-identical shard documents produce byte-identical results for
// the same shipped function, so whichever attempt wins, the query result is
// unchanged.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"distxq/internal/eval"
	"distxq/internal/trace"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// RetryPolicy configures per-lane fault tolerance of dispatch. The zero
// value (or a nil policy) with no replicas disables retrying entirely —
// exactly the pre-policy behavior.
type RetryPolicy struct {
	// MaxAttempts caps the total attempts of one lane, the first try
	// included; attempts rotate through the lane's target list (primary,
	// then replicas in order, wrapping around). Zero means one attempt per
	// available target — with two replicas, up to three attempts.
	MaxAttempts int
	// Backoff is the wait before re-issuing after a failed attempt. Hedged
	// attempts skip it: a hedge races the slow attempt, it does not replace
	// a failed one.
	Backoff time.Duration
	// HedgeAfter, when positive, launches a speculative duplicate of the
	// exchange on the next target of the rotation if the newest attempt has
	// not committed within this duration — a gather exchange commits when
	// its response has parsed, a streamed one when its first frame arrives,
	// so on streamed lanes this bounds time-to-first-frame. The hedge races
	// the attempt it doubts and never cancels it: the first attempt to
	// commit takes the lane and only then are the others cancelled (torn
	// down over cancellation-aware transports). A Client with a
	// HealthTracker overrides this per peer with the observed P90 once
	// enough fresh samples exist.
	HedgeAfter time.Duration
	// SpreadReplicas starts lanes on a rotation of the lane's replica set
	// instead of always on the primary, so concurrent sessions spread load
	// across replicas rather than dog-piling each shard's primary. The
	// rotation is health-ranked when the Client has a HealthTracker and
	// round-robin otherwise; each lane's failover order stays a fixed,
	// deterministic permutation of its target list, and replicas hold
	// byte-identical shards, so results are unchanged. Off by default: the
	// primary-first baseline keeps single-session runs reproducible.
	SpreadReplicas bool
	// RouteLive consults the Client's HealthTracker at dispatch time and
	// sends every lane to the live, fastest copy up front: targets order by
	// observed EWMA with fault-streaked peers demoted to the back (see
	// HealthTracker.RankLive), so a dead or degraded primary stops receiving
	// first attempts as soon as the tracker has seen it fail, instead of
	// every lane burning an attempt (and a hedge window) against it. This is
	// routing rather than fail-over; replicas hold byte-identical shards, so
	// results are unchanged. Takes precedence over SpreadReplicas; without a
	// tracker it falls back to the primary-first rotation.
	RouteLive bool
}

// spread reports whether initial lane targets rotate across replicas.
func (p *RetryPolicy) spread() bool { return p != nil && p.SpreadReplicas }

// routeLive reports whether lanes route to the fastest live copy up front.
func (p *RetryPolicy) routeLive() bool { return p != nil && p.RouteLive }

// maxAttempts resolves the attempt budget of a lane with the given number
// of replicas. A nil policy still fails over across replicas once each —
// installing a replica set alone buys fault tolerance, without hedging.
func (p *RetryPolicy) maxAttempts(replicas int) int {
	if p != nil && p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 1 + replicas
}

// hedgeAfter returns the hedge deadline, zero when hedging is off.
func (p *RetryPolicy) hedgeAfter() time.Duration {
	if p == nil {
		return 0
	}
	return p.HedgeAfter
}

// backoff returns the retry backoff, zero when none is configured.
func (p *RetryPolicy) backoff() time.Duration {
	if p == nil {
		return 0
	}
	return p.Backoff
}

// laneTargets returns the lane's canonical target list: the primary first,
// then the replicas in failover order. Lane.Replica indexes into this list
// regardless of how dispatch rotated it, so "Replica > 0" always means "not
// the primary".
func laneTargets(batch eval.ScatterBatch) []string {
	return append([]string{batch.Target}, batch.Replicas...)
}

// dispatchTargets returns the rotation a lane's attempts walk. Primary-first
// by default; under SpreadReplicas consecutive lanes start at different
// targets — health-ranked when a tracker is installed, round-robin otherwise
// — while each individual lane's order stays deterministic.
func (c *Client) dispatchTargets(batch eval.ScatterBatch) []string {
	targets := laneTargets(batch)
	if len(targets) <= 1 {
		return targets
	}
	if c.Retry.routeLive() && c.Health != nil {
		return c.Health.RankLive(targets)
	}
	if !c.Retry.spread() {
		return targets
	}
	seq := c.laneSeq.Add(1) - 1
	if c.Health != nil {
		return c.Health.Rank(targets, seq)
	}
	off := int(seq % uint64(len(targets)))
	rot := make([]string, 0, len(targets))
	rot = append(rot, targets[off:]...)
	return append(rot, targets[:off]...)
}

// replicaIndex maps a peer of the lane's rotation back to its index in the
// lane's canonical (primary-first) target list.
func replicaIndex(batch eval.ScatterBatch, peer string) int {
	if peer == batch.Target {
		return 0
	}
	return 1 + slices.Index(batch.Replicas, peer)
}

// firstFault tracks the error the lane reports when every attempt failed:
// the fault of the earliest attempt that failed genuinely. Cancellation
// echoes (the dispatcher tearing down the loser of a race, or the whole
// wave aborting) are remembered only as a last resort — a lane must never
// report "context canceled" when a real fault started the failover.
type firstFault struct {
	attempt int
	err     error
	echo    error
}

func (f *firstFault) record(attempt int, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if f.echo == nil {
			f.echo = err
		}
		return
	}
	if f.err == nil || attempt < f.attempt {
		f.attempt, f.err = attempt, err
	}
}

func (f *firstFault) error() error {
	if f.err != nil {
		return f.err
	}
	if f.echo != nil {
		return f.echo
	}
	return fmt.Errorf("xrpc: lane dispatch exhausted its attempts")
}

// laneAttempt is the one thing the lane runner is parameterised by: what a
// single attempt against peer does. The attempt runs under ctx, records under
// sp, and must call commit before it hands anything to the lane's consumer —
// a gather attempt once its whole response has parsed, a streamed attempt when
// its first frame arrives. commit reports whether this attempt now holds the
// lane's delivery token; an attempt that is refused abandons the exchange and
// returns an error.
type laneAttempt func(ctx context.Context, peer string, commit func() bool, sp trace.SpanRef) (Lane, error)

// gatherAttempt is the gather-whole laneAttempt: one Bulk RPC exchange whose
// results land in *out if — and only if — the attempt commits.
func (c *Client) gatherAttempt(x *xq.XRPCExpr, iterations [][]xdm.Sequence, out *[]xdm.Sequence) laneAttempt {
	return func(ctx context.Context, peer string, commit func() bool, sp trace.SpanRef) (Lane, error) {
		results, lane, err := c.callBulkCtx(ctx, peer, x, iterations, sp)
		if err != nil {
			return Lane{}, err
		}
		if !commit() {
			return Lane{}, context.Canceled
		}
		*out = results
		return lane, nil
	}
}

// attemptState is the runner's record of one launched attempt.
type attemptState struct {
	peer      string
	start     time.Time
	cancel    context.CancelFunc
	sp        trace.SpanRef
	granted   chan bool // the runner's answer to this attempt's commit
	running   bool      // has not reported its outcome yet
	cancelled bool      // torn down by the runner: it lost the commit race
}

// attemptOutcome is one attempt's report back to the lane runner.
type attemptOutcome struct {
	attempt int
	lane    Lane
	err     error
	wallNS  int64
}

// laneTimer is an optional one-shot timer of the runner's select loop: while
// disarmed its C is nil and never fires. arm expects a disarmed timer.
type laneTimer struct {
	t *time.Timer
	C <-chan time.Time
}

func (lt *laneTimer) arm(d time.Duration) {
	lt.t = time.NewTimer(d)
	lt.C = lt.t.C
}

func (lt *laneTimer) stop() {
	if lt.t != nil {
		lt.t.Stop()
		lt.t, lt.C = nil, nil
	}
}

// runLane dispatches one lane under the client's RetryPolicy: the single
// retry / hedge state machine of every dispatch mode. Attempts rotate through
// the lane's targets; a failed attempt is re-issued (after Backoff) to the
// next one, and when a hedge delay applies a speculative duplicate joins any
// attempt that has not committed in time. Attempts race until one commits:
// the commit hands that attempt the lane's delivery token, cancels every
// other outstanding attempt and disarms the hedge timer — a hedge never
// cancels an attempt that has not failed. The committed attempt's success
// ends the lane; if it faults after committing (a stream dying mid-flight)
// the token is released and the loop retries, the attempt func being
// responsible for not re-delivering what the consumer already holds. A
// deadline fault or a torn-down dispatch stops further attempts. Every
// attempt that did not win is charged to the lane's WastedNS. Exchanges in
// flight over transports without cancellation support run to completion, but
// can no longer commit — duplicated responses are safe because peer
// evaluation is deterministic and only the token holder delivers.
func (c *Client) runLane(ctx context.Context, batch eval.ScatterBatch, lsp trace.SpanRef, run laneAttempt) (Lane, error) {
	start := time.Now()
	max := c.Retry.maxAttempts(len(batch.Replicas))
	targets := c.dispatchTargets(batch)

	// All state below is owned by this goroutine; attempts talk to it through
	// outcomes and commits (an attempt index asking for the delivery token),
	// and stop trying once done closes.
	done := make(chan struct{})
	outcomes := make(chan attemptOutcome)
	commits := make(chan int)
	attempts := make([]attemptState, 0, max)
	defer func() {
		close(done)
		for i := range attempts {
			attempts[i].cancel()
		}
	}()
	var hedge, retry laneTimer
	defer hedge.stop()
	defer retry.stop()
	outstanding, retries, hedges := 0, 0, 0
	holder := -1     // attempt holding the delivery token
	stopped := false // no further attempts: budget spent or dispatch torn down
	// spent reports whether the lane may launch nothing more.
	spent := func() bool { return stopped || len(attempts) >= max || ctx.Err() != nil }
	stop := func() {
		stopped = true
		hedge.stop()
		retry.stop()
	}

	// grant hands attempt a the delivery token if it is free: every other
	// attempt is cancelled and nothing further is scheduled while it is held.
	grant := func(a int) bool {
		if holder >= 0 || attempts[a].cancelled {
			return false
		}
		holder = a
		for i := range attempts {
			if i != a {
				attempts[i].cancelled = true
				attempts[i].cancel()
			}
		}
		hedge.stop()
		retry.stop()
		return true
	}
	// sole is a launched attempt that has nothing to race — no hedge armed, no
	// other attempt outstanding. The loop would only block on it, so it runs
	// on the loop's own goroutine: the default single-attempt lane costs no
	// goroutine, context or channel hand-off.
	var sole func() attemptOutcome

	launch := func(hedged bool) {
		// The first try is the primary; later ones are retries (after a
		// fault) or hedges (racing a straggler).
		a, kind := len(attempts), "primary"
		switch {
		case a == 0:
		case hedged:
			hedges++
			kind = "hedge"
		default:
			retries++
			kind = "retry"
		}
		peer := targets[a%len(targets)]
		// The attempt owns its span end to end: it may outlive the lane (a
		// cancelled loser over a synchronous transport runs to completion), so
		// nobody else may End it — the winner tag lands post-hoc via Set,
		// which is legal on an ended span.
		asp := lsp.Child("attempt",
			trace.Str("peer", peer),
			trace.Int("replica", int64(replicaIndex(batch, peer))),
			trace.Str("kind", kind))
		attempts = append(attempts, attemptState{
			peer: peer, start: time.Now(), cancel: func() {}, sp: asp, running: true})
		outstanding++
		// The hedge trigger is resolved against the newest attempt's peer: a
		// tracked peer hedges at its own observed P90.
		hedge.stop()
		if !spent() {
			if d := c.hedgeDelay(peer); d > 0 {
				hedge.arm(d)
			}
		}
		actx := ctx
		commit := func() bool { return grant(a) }
		racing := hedge.C != nil || outstanding > 1
		if racing {
			granted := make(chan bool, 1)
			actx, attempts[a].cancel = context.WithCancel(ctx)
			attempts[a].granted = granted
			commit = func() bool {
				select {
				case commits <- a:
					return <-granted
				case <-done:
					return false
				}
			}
		}
		exec := func() attemptOutcome {
			t0 := time.Now()
			lane, err := run(actx, peer, commit, asp)
			asp.EndErr(err)
			return attemptOutcome{a, lane, err, time.Since(t0).Nanoseconds()}
		}
		if !racing {
			sole = exec
			return
		}
		go func() {
			o := exec()
			select {
			case outcomes <- o:
			case <-done:
			}
		}()
	}

	fault := &firstFault{}
	var lostNS int64 // wall time of the attempts that reported a failure
	torndown := ctx.Done()
	launch(false)
	for outstanding > 0 || retry.C != nil {
		var o attemptOutcome
		if sole != nil {
			o = sole()
			sole = nil
		} else {
			select {
			case a := <-commits:
				attempts[a].granted <- grant(a)
				continue
			case o = <-outcomes:
			case <-retry.C:
				retry.stop()
				if !spent() {
					launch(false)
				}
				continue
			case <-hedge.C:
				if !spent() {
					launch(true)
				}
				continue
			case <-torndown:
				// The dispatch was cancelled or its deadline passed: in-flight
				// attempts unwind on their own, nothing new starts.
				torndown = nil
				stop()
				continue
			}
		}
		outstanding--
		at := &attempts[o.attempt]
		at.running = false
		if o.err == nil {
			// Charge the lane for the work the others burned: reported
			// attempts their measured wall time, still-running ones the
			// time since their launch.
			wasted := lostNS
			for i := range attempts {
				if attempts[i].running {
					wasted += time.Since(attempts[i].start).Nanoseconds()
				}
			}
			at.sp.Set(trace.Bool("winner", true))
			lane := o.lane
			lane.Target = batch.Target
			lane.Replica = replicaIndex(batch, at.peer)
			lane.Retries = retries
			lane.Hedges = hedges
			lane.WastedNS = wasted
			return lane, nil
		}
		lostNS += o.wallNS
		if at.cancelled {
			continue // the loser of a commit race unwinding, not a fault
		}
		if o.attempt == holder {
			holder = -1 // died after committing: the token is free again
		}
		fault.record(o.attempt, o.err)
		// A deadline expiry is terminal: no replica can answer within a
		// budget that is already spent, so the lane stops failing over
		// instead of burning attempts on work the originator will discard.
		if isDeadline(o.err) {
			stop()
			continue
		}
		// The re-issue waits out the backoff on the retry timer, not
		// inline: the loop keeps serving commits and outcomes meanwhile,
		// so an outstanding hedge that commits wins at once and the
		// pending retry is abandoned.
		switch d := c.Retry.backoff(); {
		case spent() || retry.C != nil:
			// nothing left to launch, or a re-issue is already pending
		case d > 0:
			retry.arm(d)
		default:
			launch(false)
		}
	}
	return Lane{}, budgetFailure(ctx, fault.error(), batch.Target, start)
}
