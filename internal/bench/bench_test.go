package bench

import (
	"strings"
	"testing"

	"distxq/internal/core"
)

func TestFig7ShapeMatchesPaper(t *testing.T) {
	sizes := []int64{1 << 16, 1 << 17}
	sweep, err := Fig7Bandwidth(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 2 {
		t.Fatalf("rows = %d", len(sweep))
	}
	for _, rows := range sweep {
		ds, bv, bf, bp := rows[0].TotalBytes, rows[1].TotalBytes, rows[2].TotalBytes, rows[3].TotalBytes
		// Paper's Figure 7 shape: ds > bv > bf > bp.
		if !(ds > bv && bv > bf && bf > bp) {
			t.Errorf("bandwidth shape violated at %d docs: %d %d %d %d",
				rows[0].DocsBytes, ds, bv, bf, bp)
		}
		// Fragment/projection transfer well under half of data shipping
		// ("reduce the amount of data exchanged to less than 10% of the
		// original document sizes" at the paper's scale; the ratio improves
		// with document size since message overhead is constant).
		if bf*2 > ds {
			t.Errorf("by-fragment should transfer far less than data shipping: %d vs %d", bf, ds)
		}
	}
	// Scaling: bandwidth grows with document size for every strategy.
	for col := 0; col < 4; col++ {
		if sweep[1][col].TotalBytes <= sweep[0][col].TotalBytes {
			t.Errorf("strategy %s: bandwidth should grow with size", sweep[1][col].Strategy)
		}
	}
}

func TestFig8BreakdownShape(t *testing.T) {
	rows, err := Fig8Breakdown(1 << 18)
	if err != nil {
		t.Fatal(err)
	}
	byStrat := map[string]*Row{}
	for i := range rows {
		byStrat[rows[i].Strategy.String()] = &rows[i]
	}
	ds := byStrat["data-shipping"].Report
	bf := byStrat["pass-by-fragment"].Report
	bp := byStrat["pass-by-projection"].Report
	// Data shipping: shred dominates (the paper reports >99%; we accept a
	// clear majority since Go parse speed differs from MonetDB shredding).
	if ds.ShredNS*2 < ds.LocalExecNS {
		t.Errorf("data-shipping shred (%d) should dominate local exec (%d)", ds.ShredNS, ds.LocalExecNS)
	}
	if ds.RemoteExecNS != 0 || ds.SerdeNS != 0 {
		t.Error("data shipping has no remote phases")
	}
	// Fragment/projection: no shredding of whole documents at all.
	if bf.ShredNS != 0 || bp.ShredNS != 0 {
		t.Errorf("fragment/projection shred must be zero: %d / %d", bf.ShredNS, bp.ShredNS)
	}
	// They do pay (de)serialization and remote execution.
	if bf.SerdeNS == 0 || bf.RemoteExecNS == 0 {
		t.Error("fragment strategy must report serde and remote exec time")
	}
}

func TestFig9TotalsImprove(t *testing.T) {
	// Wall-clock phases are noisy on a single cold run; take the best of
	// three runs per strategy before comparing.
	best := map[string]int64{}
	for run := 0; run < 3; run++ {
		sweep, err := Fig9ExecTime([]int64{1 << 19})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sweep[0] {
			k := r.Strategy.String()
			if cur, ok := best[k]; !ok || r.Report.TotalNS() < cur {
				best[k] = r.Report.TotalNS()
			}
		}
	}
	ds := best["data-shipping"]
	bf := best["pass-by-fragment"]
	bp := best["pass-by-projection"]
	// The enhanced strategies beat data shipping overall (the 84–94%
	// improvement claim; we just require a clear win).
	if bf >= ds {
		t.Errorf("by-fragment total (%d) should beat data shipping (%d)", bf, ds)
	}
	if bp >= ds {
		t.Errorf("by-projection total (%d) should beat data shipping (%d)", bp, ds)
	}
}

func TestFig10RuntimeMorePrecise(t *testing.T) {
	rows, err := Fig10and11Projection([]int64{1 << 16, 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RuntimeSize >= r.CompileTimeSize {
			t.Errorf("runtime projection (%d B) must be smaller than compile-time (%d B)",
				r.RuntimeSize, r.CompileTimeSize)
		}
		ratio := float64(r.CompileTimeSize) / float64(r.RuntimeSize)
		// Paper reports ≈5×; accept anything clearly above 2× (the exact
		// factor depends on the age distribution and filler sizes).
		if ratio < 2 {
			t.Errorf("precision ratio %.1f too small (compile %d, runtime %d)",
				ratio, r.CompileTimeSize, r.RuntimeSize)
		}
	}
}

func TestPrinters(t *testing.T) {
	sweep, err := Fig7Bandwidth([]int64{1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintFig7(&sb, sweep)
	PrintFig8(&sb, sweep[0])
	PrintFig9(&sb, sweep)
	proj, err := Fig10and11Projection([]int64{1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	PrintFig10and11(&sb, proj)
	out := sb.String()
	for _, want := range []string{"Figure 7", "Figure 8", "Figure 9", "Figure 10", "Figure 11",
		"data-shipping", "by-projection", "ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q", want)
		}
	}
}

func TestFigScatterShape(t *testing.T) {
	rows, err := FigScatter(1<<17, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		want := []int{1, 2, 4}[i]
		if int(r.Requests) != want || r.Parallelism != want {
			t.Errorf("%d peers: requests=%d parallelism=%d", want, r.Requests, r.Parallelism)
		}
		if r.OverlapNetNS > r.SerialNetNS {
			t.Errorf("%d peers: overlapped %d exceeds serial %d", want, r.OverlapNetNS, r.SerialNetNS)
		}
	}
	// More peers shard the same data further: the overlapped network time
	// must not grow, while the serial sum does (per-request latency).
	if rows[2].SerialNetNS <= rows[0].SerialNetNS {
		t.Error("serial network time should grow with peer count")
	}
	if rows[2].OverlapNetNS >= rows[0].OverlapNetNS {
		t.Error("overlapped network time should shrink as shards split the transfer")
	}
	// The result is independent of the shard count.
	a := NewScatterFixture(1<<17, 2)
	b := NewScatterFixture(1<<17, 4)
	ra, _, err := a.Run(core.ByFragment)
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := b.Run(core.ByFragment)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) == 0 || len(ra) != len(rb) {
		t.Errorf("sharding changed the result: %d vs %d items", len(ra), len(rb))
	}
}
