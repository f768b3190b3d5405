package peer

// reshard_race_test.go hammers the live topology concurrently: worker
// goroutines keep querying live-shard sessions (gather-whole and streamed)
// while the test goroutine churns the layout through kills, revivals and
// Reshard deltas. Every query must still answer byte-identically to the
// static reference — in-flight plans finish on their snapshot epoch, faulted
// lanes re-route into the live one — and the run must be clean under -race.
// It runs on either side of the executor policy: workers that plan every
// query afresh (the originator only tree-walks), and workers sharing one
// epoch-keyed plan per query the way the service does, so concurrent
// executions share compiled plans while the epochs move underneath them.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"distxq/internal/core"
	"distxq/internal/xrpc"
)

func TestLiveReshardRaceHammer(t *testing.T) {
	for _, reused := range []bool{false, true} {
		reused := reused
		t.Run(fmt.Sprintf("compiled=%v", reused), func(t *testing.T) {
			w := newChurnWorld(t, 4)
			w.reset()
			var reuse *planReuse
			if reused {
				reuse = &planReuse{}
			}

			queries := []string{
				churnQueryPrefix + `/child::name`,
				`for $x in ` + churnQueryPrefix + ` return if ($x/descendant::age < 33) then $x/child::name else ()`,
			}
			want := map[string]string{}
			for _, q := range queries {
				res, err := w.refEng.QueryString(q)
				if err != nil {
					t.Fatal(err)
				}
				want[q] = serializeSeq(t, res)
			}

			stop := make(chan struct{})
			errs := make(chan error, 16)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					pol := &xrpc.RetryPolicy{RouteLive: g%2 == 0}
					sess := w.n.NewSession(w.local, core.ByFragment).
						UseLiveShards().UseRetry(pol)
					if pol.RouteLive {
						sess.UseHealth(xrpc.NewHealthTracker())
					}
					sess.Streamed = g >= 2
					send := reuse.sender(sess)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						q := queries[i%len(queries)]
						res, _, err := send(q)
						if err != nil {
							errs <- fmt.Errorf("worker %d (streamed=%v routeLive=%v) query %d: %w",
								g, sess.Streamed, pol.RouteLive, i, err)
							return
						}
						if got := serializeSeq(t, res); got != want[q] {
							errs <- fmt.Errorf("worker %d query %d diverged under churn:\nwant %q\ngot  %q",
								g, i, want[q], got)
							return
						}
					}
				}()
			}

			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 150; i++ {
				w.randomOp(rng)
				time.Sleep(200 * time.Microsecond)
			}
			close(stop)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if w.moves == 0 {
				t.Fatal("hammer applied no epoch transitions")
			}
			if reused {
				reuse.requireBothExecutors(t, w.n.engines()...)
			}
		})
	}
}
