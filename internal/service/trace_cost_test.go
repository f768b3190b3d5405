package service_test

import (
	"runtime"
	"testing"

	"distxq/internal/bench"
	"distxq/internal/core"
	"distxq/internal/service"
)

// perQuery returns what one warm run of query allocates, in allocations and
// bytes, averaged over runs on one processor as testing.AllocsPerRun does.
func perQuery(t *testing.T, query func() error) (allocs, bytes float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	if err := query(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := query(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestTracingCostCeilings pins what tracing adds to a warm query — traced
// minus untraced allocations and bytes per Service.Query — on plan_cold's
// three templates over its federation, on the scatter fixture of
// TestTracingOverheadGate, and on that fixture streamed. Each ceiling is the
// measured cost: whole allocations plus half of one, for the fraction that
// amortized buffer growth adds, and bytes rounded up to 0.1 KiB over the
// largest count seen under the race detector, plus 0.1 KiB for the exec-ns
// digits a slower machine writes. The comments hold the cost under the
// two-dispatcher design this replaced.
func TestTracingCostCeilings(t *testing.T) {
	type workload struct {
		name  string
		query func(traced bool) func() error
	}
	ceilings := map[string][2]float64{
		"plan_cold scatter":         {65.5, 20.9 * 1024}, // parent +65, +21133 B
		"plan_cold bulk":            {21.5, 8.6 * 1024},  // parent +21, +8620 B
		"plan_cold single-peer":     {20.5, 5.8 * 1024},  // parent +20, +5757 B
		"scatter fixture":           {50.5, 14.8 * 1024}, // parent +50, +14938 B
		"scatter fixture, streamed": {57.5, 18.4 * 1024}, // parent +57, +18589 B
	}
	var workloads []workload
	for _, tpl := range service.ColdPlanTemplates {
		workloads = append(workloads, workload{name: "plan_cold " + tpl[0], query: func(traced bool) func() error {
			s, _, _ := service.PlanColdFederation(service.Config{Trace: traced, TraceRing: 8})
			return func() error { _, _, err := s.Query(tpl[1], core.Budget{}); return err }
		}})
	}
	for _, streamed := range []bool{false, true} {
		name := "scatter fixture"
		if streamed {
			name += ", streamed"
		}
		workloads = append(workloads, workload{name: name, query: func(traced bool) func() error {
			f := bench.NewScatterFixture(1<<16, 3)
			s := service.New(f.Net, f.Local, core.ByFragment, service.Config{Trace: traced, TraceRing: 8, Streamed: streamed})
			return func() error { _, _, err := s.Query(f.Query, core.Budget{}); return err }
		}})
	}
	for _, w := range workloads {
		offA, offB := perQuery(t, w.query(false))
		onA, onB := perQuery(t, w.query(true))
		ceiling := ceilings[w.name]
		if onA-offA > ceiling[0] || onB-offB > ceiling[1] {
			t.Errorf("%s: tracing adds %.3f allocations and %.0f B a query, ceilings %.1f and %.0f B",
				w.name, onA-offA, onB-offB, ceiling[0], ceiling[1])
		} else {
			t.Logf("%s: tracing adds %.3f allocations and %.0f B a query (untraced %.3f, %.0f B)",
				w.name, onA-offA, onB-offB, offA, offB)
		}
	}
}
