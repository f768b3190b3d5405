package xrpc

import (
	"flag"
	"testing"

	"distxq/internal/projection"
	"distxq/internal/xdm"
)

// TestCodecScalesLinearly encodes and decodes by-fragment responses of n
// and 4n disjoint fragments, the shape of a scatter result at the paper's
// document sizes. Linear work reads a ratio of 4; a reference lookup that
// scans the fragment table reads 16 once the scan dominates. The best of
// three runs of each size is compared, so one slow run on a busy machine
// does not decide.
func TestCodecScalesLinearly(t *testing.T) {
	if f := flag.Lookup("test.benchtime"); f != nil {
		old := f.Value.String()
		if err := f.Value.Set("100ms"); err != nil {
			t.Fatal(err)
		}
		defer f.Value.Set(old)
	}
	const n = 1000
	best := func(resp *Response) int64 {
		var ns int64
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					data, err := MarshalResponse(resp, nil, nil, projection.Options{})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := ParseResponse(data); err != nil {
						b.Fatal(err)
					}
				}
			})
			if i == 0 || r.NsPerOp() < ns {
				ns = r.NsPerOp()
			}
		}
		return ns
	}
	small, large := best(scatterResponse(t, n)), best(scatterResponse(t, 4*n))
	ratio := float64(large) / float64(small)
	if ratio > 6 {
		t.Errorf("%d fragments take %d ns, %d take %d ns: ratio %.1f, want <= 6 (linear reads 4)", n, small, 4*n, large, ratio)
	} else {
		t.Logf("%d fragments %d ns, %d fragments %d ns: ratio %.1f", n, small, 4*n, large, ratio)
	}
}

// TestCodecRefScansOnlyUnranked counts the references by fragment that
// refFor locates by scanning the fragment table instead of by binary
// search: none for the nodes of frozen documents, one per reference to a
// node that has no ranks.
func TestCodecRefScansOnlyUnranked(t *testing.T) {
	resp := scatterResponse(t, 40)
	st := resultEncoder(ByFragment, nil, nil, projection.Options{})
	if _, err := st.chunk(&ResponseChunk{Items: resp.Results[0], Semantics: ByFragment}); err != nil {
		t.Fatal(err)
	}
	if st.scans != 0 {
		t.Errorf("%d scans for 40 references into a frozen document, want 0", st.scans)
	}
	unfrozen := xdm.NewDocument("unfrozen.xml")
	unfrozen.Root.AppendChild(xdm.NewText("t"))
	items := append(xdm.Sequence{unfrozen.Root}, resp.Results[0]...)
	if _, err := st.chunk(&ResponseChunk{Items: items, Semantics: ByFragment}); err != nil {
		t.Fatal(err)
	}
	if st.scans != 1 {
		t.Errorf("%d scans after one reference to an unfrozen document, want 1", st.scans)
	}
}
