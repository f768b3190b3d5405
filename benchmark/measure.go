package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distxq/internal/service"
)

// result is what one run of one workload reports.
type result struct {
	Attempted, Failed, Slices int
	// Speed is the machine's speed during the run relative to the reference
	// (see probe.go); the wall-clock metrics are already scaled by it.
	Speed   float64
	Metrics map[string]float64
}

// opCounter hands out op indices across phases and clients, so an op list
// longer than a phase (plan_cold's 512 texts) keeps cycling where the last
// phase stopped.
type opCounter struct{ n atomic.Int64 }

func (c *opCounter) next() int { return int(c.n.Add(1) - 1) }

// failures counts failed ops and shows the first few.
type failures struct {
	mu sync.Mutex
	n  int
}

func (f *failures) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n++; f.n <= 3 {
		fmt.Fprintf(os.Stderr, "benchmark: failed op: %v\n", err)
	}
}

// setup builds one fresh instance of the workload and warms it.
func setup(w *workload, f *fixture, e env, cfg service.Config) (instance, error) {
	if w.HTTP {
		return setupFleet(w, f, e)
	}
	return setupLocal(w, f, cfg)
}

func heapAlloc() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// timeOps runs ops sequentially from one client, after a forced collection
// so that every phase starts from the same collector state, and returns each
// op's latency in milliseconds (failed ops excluded).
func timeOps(do func(int) error, idx *opCounter, ops int, fails *failures) []float64 {
	lat := make([]float64, 0, ops)
	runtime.GC()
	for n := 0; n < ops; n++ {
		i := idx.next()
		t0 := time.Now()
		err := do(i)
		d := time.Since(t0)
		if err != nil {
			fails.add(err)
			continue
		}
		lat = append(lat, float64(d)/1e6)
	}
	return lat
}

// latencyPhase is timeOps on an instance, with the counters the ops moved.
func latencyPhase(inst instance, idx *opCounter, ops int, fails *failures) (lat []float64, delta counters, err error) {
	c0, err := inst.counters()
	if err != nil {
		return nil, delta, err
	}
	lat = timeOps(inst.do, idx, ops, fails)
	c1, err := inst.counters()
	if err != nil {
		return nil, delta, err
	}
	delta = counters{
		Mallocs:    c1.Mallocs - c0.Mallocs,
		AllocBytes: c1.AllocBytes - c0.AllocBytes,
		WireBytes:  c1.WireBytes - c0.WireBytes,
	}
	return lat, delta, nil
}

// throughputPhase runs ops from `clients` closed-loop clients and returns
// completed ops per second of wall time.
func throughputPhase(inst instance, idx *opCounter, ops int, fails *failures) float64 {
	runtime.GC()
	var done atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < ops/clients; n++ {
				if err := inst.do(idx.next()); err != nil {
					fails.add(err)
					continue
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(t0).Seconds()
}

// runUntraced measures the end-to-end metrics of one workload in slices,
// until `seconds` have been measured. Every slice sets the workload up on a
// fresh instance (timed: that is setup_s), then runs a latency phase and a
// throughput phase on it. Fresh instances keep the slices alike however
// long the run is — a service that accumulates state per query would
// otherwise drift — and give set-up as many samples as everything else.
// Wall-clock metrics are the median over slices of the per-slice statistic
// at reference machine speed (see probe.go), so a slow stretch of a shared
// machine moves neither one slice nor the result; counts are totals over
// the latency phases divided by their ops.
//
// Latency is reported as mean and p95. The median is among the per-layer
// metrics instead: a 1 ms query under a collector that runs often has a
// latency distribution with a long flat middle, and the median slides along
// it (by 50 % between two sessions on one box, when the mean moved by 20 %).
func runUntraced(w *workload, seed uint64, seconds float64, e env) (*result, error) {
	f := w.Gen(seed)
	const minSlices = 3
	var (
		fails                                  failures
		setups, heaps, means, p95s, qps, speed []float64
		total                                  counters
		sliceTime                              time.Duration
	)
	for start := time.Now(); len(means) < minSlices || time.Since(start)+sliceTime <= time.Duration(seconds*float64(time.Second)); {
		before := heapAlloc()
		t0 := time.Now()
		pA := probe(1)
		t1 := time.Now()
		inst, err := setup(w, f, e, service.Config{})
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setupS := time.Since(t1).Seconds()
		heap := 0.0
		if fl, ok := inst.(*fleet); ok {
			heap, err = fl.heapMB()
		} else {
			heap = (heapAlloc() - before) / 1e6
		}
		if err == nil {
			var idx opCounter
			idx.n.Store(int64(warmOps(w))) // continue the cycle after the warm-up
			pB := probe(1)
			var lat []float64
			var delta counters
			if lat, delta, err = latencyPhase(inst, &idx, w.OpsL, &fails); err == nil {
				pC, pD := probe(1), probe(clients)
				rate := throughputPhase(inst, &idx, w.OpsT, &fails)
				pE := probe(clients)
				setups = append(setups, setupS*speed1(pA, pB))
				means = append(means, mean(lat)*speed1(pB, pC))
				p95s = append(p95s, percentile(lat, 95)*speed1(pB, pC))
				qps = append(qps, rate/speed2(pD, pE))
				speed = append(speed, speed1(pB, pC))
				heaps = append(heaps, heap)
				total.Mallocs += delta.Mallocs
				total.AllocBytes += delta.AllocBytes
				total.WireBytes += delta.WireBytes
			}
		}
		inst.close()
		if err != nil {
			return nil, fmt.Errorf("%s: reading counters: %w", w.Name, err)
		}
		sliceTime = time.Since(t0)
	}
	n := float64(len(means) * w.OpsL)
	return &result{
		Attempted: len(means) * (w.OpsL + w.OpsT/clients*clients),
		Failed:    fails.n,
		Slices:    len(means),
		Speed:     median(speed),
		Metrics: map[string]float64{
			"setup_s":              median(setups),
			"setup_heap_mb":        median(heaps),
			"query_mean_ms":        median(means),
			"query_p95_ms":         median(p95s),
			"throughput_qps":       median(qps),
			"wire_bytes_per_query": float64(total.WireBytes) / n,
			"allocs_per_query":     float64(total.Mallocs) / n,
			"alloc_kb_per_query":   float64(total.AllocBytes) / n / 1e3,
		},
	}, nil
}
