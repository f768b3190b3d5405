package xrpc

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"distxq/internal/eval"
)

// fakeClock is a swappable clock for staleness tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestTracker() (*HealthTracker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	h := NewHealthTracker()
	h.now = clk.now
	return h, clk
}

func TestHealthEWMA(t *testing.T) {
	h, clk := newTestTracker()
	if _, ok := h.SnapshotAll()["p"]; ok {
		t.Fatal("an unseen peer must not be tracked")
	}
	h.Observe("p", 10*time.Millisecond)
	if st := h.SnapshotAll()["p"]; st.Seen != 1 || st.EWMANS != (10*time.Millisecond).Nanoseconds() {
		t.Fatalf("after first sample: %+v, want EWMA 10ms over 1 sample", st)
	}
	// alpha 0.2: 0.2*20 + 0.8*10 = 12ms.
	h.Observe("p", 20*time.Millisecond)
	if st := h.SnapshotAll()["p"]; st.EWMANS != (12 * time.Millisecond).Nanoseconds() {
		t.Fatalf("EWMA after second sample = %v, want 12ms", time.Duration(st.EWMANS))
	}
	// A stale peer keeps its EWMA but shows its age and no fresh samples.
	clk.advance(DefaultHealthStaleAfter + time.Second)
	if st := h.SnapshotAll()["p"]; st.AgeNS <= DefaultHealthStaleAfter.Nanoseconds() || st.FreshSamples != 0 {
		t.Fatalf("stale peer: %+v, want age beyond %v and no fresh samples", st, DefaultHealthStaleAfter)
	}
}

func TestHealthHedgeAfterNeedsFreshSamples(t *testing.T) {
	h, clk := newTestTracker()
	for i := 0; i < DefaultHealthMinSamples-1; i++ {
		h.Observe("p", 10*time.Millisecond)
	}
	if _, ok := h.HedgeAfter("p"); ok {
		t.Fatal("hedge trigger set below the fresh-sample floor")
	}
	h.Observe("p", 10*time.Millisecond)
	if d, ok := h.HedgeAfter("p"); !ok || d != 10*time.Millisecond {
		t.Fatalf("HedgeAfter = %v/%v, want 10ms/true", d, ok)
	}
	// Decay: once the samples go stale the tracker declines again and the
	// static policy takes back over.
	clk.advance(DefaultHealthStaleAfter + time.Second)
	if _, ok := h.HedgeAfter("p"); ok {
		t.Fatal("hedge trigger survived sample staleness")
	}
}

func TestHealthHedgeAfterIsP90(t *testing.T) {
	h, _ := newTestTracker()
	// 100 samples 1..100ms: nearest-rank P90 = 90ms.
	for i := 1; i <= 100; i++ {
		h.Observe("p", time.Duration(i)*time.Millisecond)
	}
	// Only the last Window samples are retained (ring of 64): 37..100ms,
	// P90 over those = ceil-ish nearest rank.
	d, ok := h.HedgeAfter("p")
	if !ok {
		t.Fatal("no hedge trigger after 100 samples")
	}
	if d < 85*time.Millisecond || d > 100*time.Millisecond {
		t.Fatalf("adaptive hedge trigger %v outside the windowed P90 region", d)
	}
	if q, _ := h.Quantile("p", 0.5); q >= d {
		t.Fatalf("P50 %v not below hedge trigger %v", q, d)
	}
}

func TestHealthRankSpreadsAndDemotes(t *testing.T) {
	h, _ := newTestTracker()
	targets := []string{"a", "b", "c"}
	// Unknown peers are all healthy: Rank rotates deterministically by seq.
	if got := h.Rank(targets, 0); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("seq 0: %v", got)
	}
	if got := h.Rank(targets, 1); !reflect.DeepEqual(got, []string{"b", "c", "a"}) {
		t.Fatalf("seq 1: %v", got)
	}
	// Same seq, same tracker state, same answer.
	if got := h.Rank(targets, 1); !reflect.DeepEqual(got, []string{"b", "c", "a"}) {
		t.Fatalf("seq 1 not deterministic: %v", got)
	}
	// A slow peer (EWMA beyond 1.5x best) is demoted behind the healthy.
	h.Observe("a", 10*time.Millisecond)
	h.Observe("b", 100*time.Millisecond)
	if got := h.Rank(targets, 0); !reflect.DeepEqual(got, []string{"a", "c", "b"}) {
		t.Fatalf("slow demotion: %v", got)
	}
	// A faulting peer is demoted; a success clears the streak.
	h.ObserveFault("a")
	if got := h.Rank(targets, 0); !reflect.DeepEqual(got, []string{"c", "a", "b"}) {
		t.Fatalf("fault demotion: %v", got)
	}
	h.Observe("a", 10*time.Millisecond)
	if got := h.Rank(targets, 0); !reflect.DeepEqual(got, []string{"a", "c", "b"}) {
		t.Fatalf("fault recovery: %v", got)
	}
	// All unhealthy: the original failover order comes back rather than an
	// empty rotation.
	h.ObserveFault("a")
	h.ObserveFault("b")
	h.ObserveFault("c")
	if got := h.Rank(targets, 0); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("all-unhealthy fallback: %v", got)
	}
}

// TestDispatchTargetsSpread: replica spreading is opt-in, deterministic in
// lane sequence, and always a permutation of the canonical primary-first
// list — Lane.Replica provenance depends on that.
func TestDispatchTargetsSpread(t *testing.T) {
	batch := eval.ScatterBatch{Target: "p", Replicas: []string{"r1", "r2"}}
	canonical := []string{"p", "r1", "r2"}

	// Default policy: primary-first, no rotation.
	cl := &Client{Retry: &RetryPolicy{}}
	for i := 0; i < 3; i++ {
		if got := cl.dispatchTargets(batch); !reflect.DeepEqual(got, canonical) {
			t.Fatalf("no-spread dispatch %d: %v", i, got)
		}
	}

	// SpreadReplicas without a tracker: round-robin rotation by lane seq.
	cl = &Client{Retry: &RetryPolicy{SpreadReplicas: true}}
	want := [][]string{
		{"p", "r1", "r2"},
		{"r1", "r2", "p"},
		{"r2", "p", "r1"},
		{"p", "r1", "r2"},
	}
	for i, w := range want {
		if got := cl.dispatchTargets(batch); !reflect.DeepEqual(got, w) {
			t.Fatalf("spread lane %d = %v, want %v", i, got, w)
		}
	}

	// With a tracker, rotation runs over the health ranking; the result is
	// still a permutation of the canonical list and replicaIndex maps every
	// winner back to its canonical position.
	h, _ := newTestTracker()
	h.ObserveFault("p")
	cl = &Client{Retry: &RetryPolicy{SpreadReplicas: true}, Health: h}
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		got := cl.dispatchTargets(batch)
		if len(got) != len(canonical) {
			t.Fatalf("lane %d: %v is not a permutation of %v", i, got, canonical)
		}
		perm := map[string]bool{}
		for _, p := range got {
			perm[p] = true
		}
		for _, p := range canonical {
			if !perm[p] {
				t.Fatalf("lane %d: %v dropped target %s", i, got, p)
			}
		}
		if got[len(got)-1] != "p" {
			t.Errorf("lane %d: faulting primary %v not demoted in %v", i, "p", got)
		}
		seen[fmt.Sprint(got)] = true
	}
	for i, p := range canonical {
		if idx := replicaIndex(batch, p); idx != i {
			t.Errorf("replicaIndex(%s) = %d, want %d", p, idx, i)
		}
	}
}
