package xrpc

// This file implements per-lane fault tolerance for every lane of every
// dispatch: one runner (runLane) that re-issues a failed exchange to the
// lane's next replica at once (retry) and races a speculative duplicate
// against a slow one (hedging). The runner owns the rotation, the attempt
// budget, the hedge timer, fault bookkeeping and winner provenance; the lane
// record (laneCall) says what one attempt does, a gather-whole or a
// chunk-stream exchange. Attempts race until one commits, the committed
// attempt alone places results, the losers are cancelled, and the lane's
// provenance travels on the Lane record. A lane with nothing to race — no
// replica, so no hedge can arm — runs its attempt on the runner's own
// goroutine and builds no race. Correctness rests on deterministic peers:
// replicas holding byte-identical shards produce byte-identical results, so
// whichever attempt wins, the query result is unchanged.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"distxq/internal/eval"
	"distxq/internal/trace"
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
	// primary-first baseline keeps single-session runs reproducible. xqd
	// always sets it, with a tracker.
	SpreadReplicas bool
}

// spread reports whether initial lane targets rotate across replicas.
func (p *RetryPolicy) spread() bool { return p != nil && p.SpreadReplicas }

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
	if len(targets) <= 1 || !c.Retry.spread() {
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

// laneAttempt is what the lane runner is parameterised by: what a single
// attempt does. exchange runs under ctx against a.peer, records under a.sp,
// and must win a.commit() before it places anything — a gather attempt once
// its whole response has parsed, a streamed attempt when its first frame
// arrives; a refused attempt abandons its exchange and returns an error.
type laneAttempt interface {
	exchange(ctx context.Context, a *attempt) (Lane, error)
}

// attempt is one launched attempt of a lane: what the attempt reads (its
// peer and span) and the runner's record of it.
type attempt struct {
	peer  string
	sp    trace.SpanRef
	lane  *laneRun
	index int
	start time.Time
	// A racing attempt runs under its own context and asks for the delivery
	// token over the lane's commits channel, answered on granted; an attempt
	// that races nothing has neither and is answered on the spot.
	cancel    context.CancelFunc
	granted   chan bool
	running   bool // has not reported its outcome yet
	cancelled bool // torn down by the runner: it lost the commit race
}

// commit asks for the lane's delivery token and reports whether this attempt
// now holds it.
func (a *attempt) commit() bool {
	l := a.lane
	if a.granted == nil {
		return l.grant(a.index) // it runs on the runner's goroutine
	}
	select {
	case l.commits <- a.index:
		return <-a.granted
	case <-l.done:
		return false
	}
}

// attemptOutcome is one attempt's report back to the lane runner.
type attemptOutcome struct {
	attempt int
	lane    Lane
	err     error
	wallNS  int64
}

// laneRun is the state of one lane's dispatch, owned by the goroutine that
// runs runLane. Only a race needs channels: the first launch that races
// makes them, so a lane whose one attempt races nothing makes none.
type laneRun struct {
	// What the lane dispatches, set before runLane.
	batch eval.ScatterBatch
	sp    trace.SpanRef
	run   laneAttempt

	c        *Client
	ctx      context.Context
	targets  []string
	lone     [1]string // the targets of a lane without replicas
	max      int
	attempts []attempt   // capacity max, so an attempt's record never moves
	first    [1]attempt  // the attempts of a lane allowed one
	hedge    *time.Timer // armed while a hedge would race the newest attempt

	outstanding, retries, hedges int
	holder                       int      // attempt holding the delivery token, -1 when free
	stopped                      bool     // the dispatch was torn down or its deadline passed
	sole                         *attempt // launched with nothing to race: run on this goroutine

	// The race: attempts report outcomes and ask for the token on these, and
	// stop trying once done closes.
	done     chan struct{}
	outcomes chan attemptOutcome
	commits  chan int
}

// spent reports whether the lane may launch nothing more.
func (l *laneRun) spent() bool {
	return l.stopped || len(l.attempts) >= l.max || l.ctx.Err() != nil
}

func (l *laneRun) stop() {
	l.stopped = true
	l.disarm()
}

func (l *laneRun) disarm() {
	if l.hedge != nil {
		l.hedge.Stop()
		l.hedge = nil
	}
}

// grant hands attempt i the delivery token if it is free: every other
// attempt is cancelled and nothing further is scheduled while it is held.
func (l *laneRun) grant(i int) bool {
	if l.holder >= 0 || l.attempts[i].cancelled {
		return false
	}
	l.holder = i
	for j := range l.attempts {
		if j != i {
			l.attempts[j].cancelled = true
			if cancel := l.attempts[j].cancel; cancel != nil {
				cancel()
			}
		}
	}
	l.disarm()
	return true
}

// launch starts the lane's next attempt on the next target of its rotation.
// The first try is the primary; later ones are retries (after a fault) or
// hedges (racing a straggler).
func (l *laneRun) launch(hedged bool) {
	i, kind := len(l.attempts), "primary"
	switch {
	case i == 0:
	case hedged:
		l.hedges++
		kind = "hedge"
	default:
		l.retries++
		kind = "retry"
	}
	peer := l.targets[i%len(l.targets)]
	l.attempts = append(l.attempts, attempt{peer: peer, lane: l, index: i, start: time.Now(), running: true})
	a := &l.attempts[i]
	if l.sp.Active() {
		// The attempt owns its span end to end: it may outlive the lane (a
		// cancelled loser over a synchronous transport runs to completion),
		// so nobody else may End it — the winner tag lands post-hoc via Set,
		// which is legal on an ended span.
		a.sp = l.sp.Child("attempt",
			trace.Str("peer", peer),
			trace.Int("replica", int64(replicaIndex(l.batch, peer))),
			trace.Str("kind", kind))
	}
	l.outstanding++
	// The hedge trigger is resolved against the newest attempt's peer: a
	// tracked peer hedges at its own observed P90.
	l.disarm()
	if !l.spent() {
		if d := l.c.hedgeDelay(peer); d > 0 {
			l.hedge = time.NewTimer(d)
		}
	}
	if l.hedge == nil && l.outstanding == 1 {
		// Nothing to race: no hedge armed, no other attempt outstanding. The
		// loop would only block on it, so it runs on the loop's goroutine.
		l.sole = a
		return
	}
	if l.done == nil {
		l.done = make(chan struct{})
		l.outcomes = make(chan attemptOutcome)
		l.commits = make(chan int)
	}
	ctx, cancel := context.WithCancel(l.ctx)
	a.cancel, a.granted = cancel, make(chan bool, 1)
	go func() {
		o := l.exec(ctx, a)
		select {
		case l.outcomes <- o:
		case <-l.done:
		}
	}()
}

// exec runs attempt a and closes its span.
func (l *laneRun) exec(ctx context.Context, a *attempt) attemptOutcome {
	t0 := time.Now()
	lane, err := l.run.exchange(ctx, a)
	a.sp.EndErr(err)
	return attemptOutcome{a.index, lane, err, time.Since(t0).Nanoseconds()}
}

// won closes the lane on a's success, charging it for the work the others
// burned: reported attempts their measured wall time (lostNS), still-running
// ones the time since their launch.
func (l *laneRun) won(a *attempt, lane Lane, lostNS int64) Lane {
	for i := range l.attempts {
		if l.attempts[i].running {
			lostNS += time.Since(l.attempts[i].start).Nanoseconds()
		}
	}
	a.sp.Set(trace.Bool("winner", true))
	lane.Target = l.batch.Target
	lane.Replica = replicaIndex(l.batch, a.peer)
	lane.Retries = l.retries
	lane.Hedges = l.hedges
	lane.WastedNS = lostNS
	return lane
}

// close releases whatever the lane's attempts still hold: racing attempts
// stop waiting on the runner and are cancelled.
func (l *laneRun) close() {
	l.disarm()
	if l.done != nil {
		close(l.done)
	}
	for i := range l.attempts {
		if cancel := l.attempts[i].cancel; cancel != nil {
			cancel()
		}
	}
}

// runLane dispatches one lane under the client's RetryPolicy: the single
// retry / hedge state machine of every dispatch mode. Attempts rotate through
// the lane's targets; a failed attempt is re-issued at once to the next one,
// and when a hedge delay applies a speculative duplicate joins any attempt
// that has not committed in time. Attempts race until one commits: the
// commit hands that attempt the lane's delivery token, cancels every other
// outstanding attempt and disarms the hedge timer — a hedge never cancels an
// attempt that has not failed. The committed attempt's success ends the lane;
// if it faults after committing (a stream dying mid-flight) the token is
// released and the loop retries, the attempt func being responsible for not
// re-delivering what the consumer already holds. A deadline fault or a
// torn-down dispatch stops further attempts. Every attempt that did not win
// is charged to the lane's WastedNS. Exchanges in flight over transports
// without cancellation support run to completion, but can no longer commit —
// duplicated responses are safe because peer evaluation is deterministic and
// only the token holder delivers.
func (c *Client) runLane(ctx context.Context, l *laneRun) (Lane, error) {
	start := time.Now()
	l.c, l.ctx, l.holder = c, ctx, -1
	l.max = c.Retry.maxAttempts(len(l.batch.Replicas))
	l.attempts = l.first[:0]
	if l.max > 1 {
		l.attempts = make([]attempt, 0, l.max)
	}
	if len(l.batch.Replicas) == 0 {
		l.lone[0] = l.batch.Target
		l.targets = l.lone[:]
	} else {
		l.targets = c.dispatchTargets(l.batch)
	}
	defer l.close()

	var fault firstFault
	var lostNS int64 // wall time of the attempts that reported a failure
	torndown := ctx.Done()
	l.launch(false)
	for l.outstanding > 0 {
		var o attemptOutcome
		if a := l.sole; a != nil {
			l.sole = nil
			o = l.exec(ctx, a)
		} else {
			var hedge <-chan time.Time
			if l.hedge != nil {
				hedge = l.hedge.C
			}
			select {
			case i := <-l.commits:
				l.attempts[i].granted <- l.grant(i)
				continue
			case o = <-l.outcomes:
			case <-hedge:
				if !l.spent() {
					l.launch(true)
				}
				continue
			case <-torndown:
				// The dispatch was cancelled or its deadline passed: in-flight
				// attempts unwind on their own, nothing new starts.
				torndown = nil
				l.stop()
				continue
			}
		}
		l.outstanding--
		a := &l.attempts[o.attempt]
		a.running = false
		if o.err == nil {
			return l.won(a, o.lane, lostNS), nil
		}
		lostNS += o.wallNS
		if a.cancelled {
			continue // the loser of a commit race unwinding, not a fault
		}
		if o.attempt == l.holder {
			l.holder = -1 // died after committing: the token is free again
		}
		fault.record(o.attempt, o.err)
		// A deadline expiry is terminal: no replica can answer within a
		// budget that is already spent, so the lane stops failing over
		// instead of burning attempts on work the originator will discard.
		if isDeadline(o.err) {
			l.stop()
			continue
		}
		if !l.spent() {
			l.launch(false)
		}
	}
	return Lane{}, budgetFailure(ctx, fault.error(), l.batch.Target, start)
}
