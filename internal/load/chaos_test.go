package load

// Fault injection for the load tests. Kills go through the same
// Network.KillPeer/RevivePeer path the failover tests use — a killed peer's
// endpoint deregisters, so its lanes fail like a dead host and the dispatch
// layer must fail over.

import (
	"math/rand"
	"sync"
	"time"

	"distxq/internal/peer"
)

// Chaos kills random peers for bounded downtimes while a load run is in
// flight. The victim sequence and kill timing derive from Seed alone, so a
// run's injected fault schedule is reproducible (completion timing is not —
// this is a live harness, not a simulation).
type Chaos struct {
	// Net is the federation under test; Victims the peers eligible to die.
	Net     *peer.Network
	Victims []string
	// Interval is the mean time between kills (jittered ±50%); Downtime how
	// long each victim stays dead. At most one victim is down at a time, so
	// a ×2-replicated federation always has a live copy of every shard.
	Interval time.Duration
	Downtime time.Duration
	// Seed feeds the private PRNG; zero means 1.
	Seed int64
}

// Start launches the kill loop and returns its stop function, which revives
// any currently-dead victim and blocks until the loop exits.
func (c *Chaos) Start() (stop func()) {
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	done := make(chan struct{})
	var wg sync.WaitGroup
	sleep := func(d time.Duration) bool {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-done:
			return false
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			jitter := time.Duration(rng.Int63n(int64(c.Interval) + 1))
			if !sleep(c.Interval/2 + jitter) {
				return
			}
			victim := c.Victims[rng.Intn(len(c.Victims))]
			c.Net.KillPeer(victim)
			ok := sleep(c.Downtime)
			c.Net.RevivePeer(victim)
			if !ok {
				return
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
