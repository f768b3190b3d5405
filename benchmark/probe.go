package main

import (
	"strconv"
	"strings"
	"sync"
	"time"
)

// The machine-speed probe.
//
// The benchmark runs on shared machines. On the two-vCPU box it was built
// on, the speed of identical work drifts by 20-40 % over minutes (nothing
// visible in steal time or load), so ten runs of one workload spread by
// 15-25 % of their median whatever statistic is taken within a run. A
// bound tighter than that cannot be held, and one looser than that gates
// nothing.
//
// So every wall-clock end-to-end metric is reported at a reference machine
// speed: next to each timed phase the benchmark times a fixed piece of work
// of its own — building and serializing small trees, the allocation-heavy
// kind of work the program under test does, and no code of that program —
// and scales the phase's result by reference time / measured time. On the
// same box this cut the spread of scatter_gather's mean latency from 17.7 %
// to 4.6 % and of its throughput from 13.8 % to 7.5 % in a drifting
// stretch; in a calm stretch it adds the probe's own noise (a few %). The
// unscaled median latency and the speed factor itself are reported among
// the per-layer metrics, so nothing is hidden.
//
// The reference times are what the probe takes on that box at its fastest;
// they only set the scale, so that scaled and unscaled numbers are of one
// size there.
const (
	probeRef1 = 16.0 // ms, one goroutine
	probeRef2 = 19.0 // ms, `clients` goroutines at once
)

type probeNode struct {
	name, text string
	kids       []*probeNode
}

func probeBuild(depth int, seq *int) *probeNode {
	*seq++
	n := &probeNode{name: "n" + strconv.Itoa(*seq%97), text: strconv.Itoa(*seq)}
	if depth > 0 {
		for i := 0; i < 4; i++ {
			n.kids = append(n.kids, probeBuild(depth-1, seq))
		}
	}
	return n
}

func probeSerialize(sb *strings.Builder, n *probeNode) {
	sb.WriteString("<" + n.name + ">")
	sb.WriteString(n.text)
	for _, k := range n.kids {
		probeSerialize(sb, k)
	}
	sb.WriteString("</" + n.name + ">")
}

// probe runs the fixed work on each of `threads` goroutines at once and
// returns the wall time in milliseconds.
func probe(threads int) float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	lens := make([]int, threads)
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 18; r++ {
				seq := 0
				var sb strings.Builder
				probeSerialize(&sb, probeBuild(6, &seq))
				lens[g] += sb.Len()
			}
		}(g)
	}
	wg.Wait()
	return float64(time.Since(t0)) / 1e6
}

// speed1 and speed2 turn probe times taken before and after a phase into
// the machine's speed during it, relative to the reference: below 1 on a
// slow stretch. A latency measured then is multiplied by it, a rate divided.
func speed1(before, after float64) float64 { return probeRef1 / ((before + after) / 2) }
func speed2(before, after float64) float64 { return probeRef2 / ((before + after) / 2) }
