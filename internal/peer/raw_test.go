package peer

import (
	"testing"

	"distxq/internal/core"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
)

// TestReturnedOnlyResultsStayRaw: the scatter query only returns what its
// remote calls answer, so under pass-by-fragment, gathered or streamed, the
// originator keeps every result element as its shipped bytes — and prints
// exactly what shredding by value does. The other strategies shred.
func TestReturnedOnlyResultsStayRaw(t *testing.T) {
	cfg := xmark.Config{Seed: 31, Persons: 60, FillerBytes: 20, MinAge: 18, MaxAge: 60}
	net, local, names := newShardedPeople(t, cfg, 4)
	query := xmark.ScatterQuery(names)
	want, _, err := net.NewSession(local, core.ByValue).Query(query)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []core.Strategy{core.ByValue, core.ByFragment, core.ByProjection} {
		for _, streamed := range []bool{false, true} {
			sess := net.NewSession(local, strat)
			sess.Streamed = streamed
			res, _, err := sess.Query(query)
			if err != nil {
				t.Fatalf("%v streamed=%v: %v", strat, streamed, err)
			}
			if g, w := xdm.SequenceString(res), xdm.SequenceString(want); g != w {
				t.Fatalf("%v streamed=%v: prints\n%q\nwant\n%q", strat, streamed, g, w)
			}
			raws := 0
			for _, it := range res {
				if _, ok := it.(*xdm.Raw); ok {
					raws++
				}
			}
			if wantRaw := strat == core.ByFragment; (raws == len(res)) != wantRaw || raws > 0 && !wantRaw || len(res) == 0 {
				t.Errorf("%v streamed=%v: %d of %d result items raw", strat, streamed, raws, len(res))
			}
		}
	}
}
