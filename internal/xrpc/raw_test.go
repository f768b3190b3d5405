package xrpc

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"distxq/internal/projection"
	"distxq/internal/trace"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// rawMessage is a by-fragment response of one call whose sequence is ref,
// an atomic, and a whole reference to a canonical second fragment; the
// first fragment holds content (a document fragment when doc is set).
func rawMessage(content string, doc bool, ref string) []byte {
	kind := ""
	if doc {
		kind = ` kind="document"`
	}
	return []byte(envelopeOpen + "<" + elBody + "><" + elResponse + ` semantics="by-fragment" exec-ns="1" serde-ns="2">` +
		"<" + elFragments + "><" + elFragment + ` base-uri="u"` + kind + ">" + content + "</" + elFragment + ">" +
		"<" + elFragment + ` base-uri="v"><v a="1">w</v></` + elFragment + "></" + elFragments + ">" +
		"<" + elCall + "><" + elSequence + ">" + ref + "<" + elAtomic + ` type="xs:integer">7</` + elAtomic + ">" +
		"<" + elElement + ` fragid="2" nodeid="1"/>` + "</" + elSequence + "></" + elCall + ">" +
		"</" + elResponse + "></" + elBody + "></env:Envelope>")
}

const wholeRef = "<" + elElement + ` fragid="1" nodeid="1"/>`

// rawSeed is a message with what its raw-first decode must do: fall back
// for cause (an index into FallbackCauses), or, for cause -1, keep items
// result nodes as bytes.
type rawSeed struct {
	name  string
	chunk bool
	data  []byte
	cause int
	items int64
}

func rawSeeds(t testing.TB) []rawSeed {
	const ref, nonCanonical, raw = 0, 1, -1
	seeds := []rawSeed{
		{"escapes", false, rawMessage(`<a x="&amp;&lt;&gt;&quot;&#13;'">t &amp;&lt;&gt;&#13;"'</a>`, false, wholeRef), raw, 2},
		// Serialize escapes > in attribute values, so &gt; there is canonical.
		{"&gt; in an attribute", false, rawMessage(`<a x="&gt;"/>`, false, wholeRef), raw, 2},
		{"text fragment", false, rawMessage(`hello`, false, "<"+elTextNode+` fragid="1" nodeid="1"/>`), raw, 2},
		{"document fragment", false, rawMessage(` <a/>x<b c="d"><e/></b> `, true, "<"+elDocumentEl+` fragid="1" nodeid="1"/>`), raw, 2},
		{"empty document fragment", false, rawMessage(``, true, "<"+elDocumentEl+` fragid="1" nodeid="1"/>`), raw, 2},
		{"nested elements", false, rawMessage(`<a><b x="1"><c/>t<d>u</d></b> </a>`, false, wholeRef), raw, 2},

		{"inner reference", false, rawMessage(`<a><b/></a>`, false, "<"+elElement+` fragid="1" nodeid="2"/>`), ref, 0},
		{"attribute reference", false, rawMessage(`<a x="1"/>`, false, "<"+elAttribute+` fragid="1" nodeid="1" name="x"/>`), ref, 0},
		{"reference out of range", false, rawMessage(`<a/>`, false, "<"+elElement+` fragid="3" nodeid="1"/>`), ref, 0},

		{"CDATA section", false, rawMessage(`<a>x<![CDATA[y]]></a>`, false, wholeRef), nonCanonical, 0},
		{"&quot; in text", false, rawMessage(`<a>say &quot;hi&quot;</a>`, false, wholeRef), nonCanonical, 0},
		{"character reference", false, rawMessage(`<a>&#65;</a>`, false, wholeRef), nonCanonical, 0},
		{"> in an attribute", false, rawMessage(`<a x="1>0"/>`, false, wholeRef), nonCanonical, 0},
		{"single-quoted attribute", false, rawMessage(`<a x='1'/>`, false, wholeRef), nonCanonical, 0},
		{"<a></a>", false, rawMessage(`<a><b></b></a>`, false, wholeRef), nonCanonical, 0},
		{"space before />", false, rawMessage(`<a x="1" />`, false, wholeRef), nonCanonical, 0},
		{"two spaces between attributes", false, rawMessage(`<a x="1"  y="2"/>`, false, wholeRef), nonCanonical, 0},
		{"space in an end tag", false, rawMessage(`<a>t</a >`, false, wholeRef), nonCanonical, 0},
		{"space around =", false, rawMessage(`<a x = "1"/>`, false, wholeRef), nonCanonical, 0},
		{"xmlns attribute", false, rawMessage(`<a xmlns="urn:x"><b/></a>`, false, wholeRef), nonCanonical, 0},
		{"xmlns:p attribute", false, rawMessage(`<p:a xmlns:p="urn:p"/>`, false, wholeRef), nonCanonical, 0},
		{"duplicated attribute", false, rawMessage(`<a x="1" x="2"/>`, false, wholeRef), nonCanonical, 0},
		{"two top-level nodes", false, rawMessage(`<a/><b/>`, false, wholeRef), nonCanonical, 0},
		{"whitespace after the node", false, rawMessage(`<a/> `, false, wholeRef), nonCanonical, 0},
		{"PI splitting a text run", false, rawMessage(`<a>x<?p?>y</a>`, false, wholeRef), nonCanonical, 0},
		{"comment splitting a text run", false, rawMessage(`<a>x<!--c-->y</a>`, false, wholeRef), nonCanonical, 0},
		{"PI before the end tag", false, rawMessage(`<a/><?p?>`, false, wholeRef), nonCanonical, 0},
		{"carriage return", false, rawMessage("<a>x\r\ny</a>", false, wholeRef), nonCanonical, 0},
		{"empty fragment", false, rawMessage(``, false, wholeRef), nonCanonical, 0},
	}
	marshal := func(name string, chunk bool, sem Semantics, s xdm.Sequence, cause int, items int64) {
		resp := &Response{Semantics: sem, ExecNanos: 5, SerializeNanos: 6, Results: []xdm.Sequence{s, {}, s}}
		if !chunk {
			data, err := MarshalResponse(resp, nil, nil, projection.Options{})
			if err != nil {
				t.Fatal(err)
			}
			seeds = append(seeds, rawSeed{name, false, data, cause, items})
			return
		}
		for i, frame := range collectFrames(t, resp, 2) {
			seeds = append(seeds, rawSeed{fmt.Sprintf("%s frame %d", name, i), true, frame, cause, -1})
		}
	}
	fx := newWireFixture(t)
	names := scatterResponse(t, 5).Results[0]
	maximal := xdm.Sequence{fx.book0, fx.text1, fx.para, xdm.NewInteger(3)}
	marshal("scatter names", false, ByFragment, names, raw, 10)
	marshal("maximal nodes", false, ByFragment, maximal, raw, 6)
	marshal("document node", false, ByFragment, xdm.Sequence{names[0].(*xdm.Node).Doc.Root}, raw, 2)
	marshal("document node with a comment", false, ByFragment, xdm.Sequence{fx.lib.Root}, nonCanonical, 0)
	marshal("nested nodes", false, ByFragment, xdm.Sequence{fx.book0, fx.book0.Children[0]}, ref, 0)
	marshal("attribute", false, ByFragment, xdm.Sequence{fx.id1}, ref, 0)
	marshal("comment", false, ByFragment, xdm.Sequence{fx.comment}, nonCanonical, 0)
	// Only a by-fragment message decodes raw: the others decode as before.
	marshal("by value", false, ByValue, maximal, raw, 0)
	marshal("by projection", false, ByProjection, names, raw, 0)
	marshal("scatter names", true, ByFragment, names, raw, 0)
	marshal("nested nodes", true, ByFragment, xdm.Sequence{fx.book0, fx.book0.Children[0]}, ref, 0)
	return seeds
}

// decodeRaw decodes a seed raw first, and in full.
func decodeRaw(chunk bool, data []byte) (raw, full any, counts RawCounts, err, ferr error) {
	if chunk {
		raw, err = decode(new(decoder), data, true, &counts, new(laneState).parseChunk)
		full, ferr = ParseResponseChunk(data)
	} else {
		raw, err = decode(new(decoder), data, true, &counts, (*decoder).response)
		full, ferr = ParseResponse(data)
	}
	return
}

// rawAgrees reports how a raw-first decode of data differs from the full
// decode: the same error, or values that print byte for byte alike, with
// every raw item counted.
func rawAgrees(chunk bool, data []byte) error {
	raw, full, counts, err, ferr := decodeRaw(chunk, data)
	if (err == nil) != (ferr == nil) || err != nil && err.Error() != ferr.Error() {
		return fmt.Errorf("raw-first error %v, full error %v", err, ferr)
	}
	if err != nil {
		return nil
	}
	var rs, fs []xdm.Sequence
	switch r := raw.(type) {
	case *Response:
		f := full.(*Response)
		if r.Semantics != f.Semantics || r.ExecNanos != f.ExecNanos || r.SerializeNanos != f.SerializeNanos || !reflect.DeepEqual(r.Spans, f.Spans) {
			return fmt.Errorf("header %v/%d/%d, full %v/%d/%d", r.Semantics, r.ExecNanos, r.SerializeNanos, f.Semantics, f.ExecNanos, f.SerializeNanos)
		}
		rs, fs = r.Results, f.Results
	case *ResponseChunk:
		f := full.(*ResponseChunk)
		rc, fc := *r, *f
		rc.Items, fc.Items = nil, nil
		if !reflect.DeepEqual(rc, fc) {
			return fmt.Errorf("frame %+v, full %+v", rc, fc)
		}
		rs, fs = []xdm.Sequence{r.Items}, []xdm.Sequence{f.Items}
	}
	if len(rs) != len(fs) {
		return fmt.Errorf("%d results, full %d", len(rs), len(fs))
	}
	raws := int64(0)
	for i := range rs {
		for _, it := range rs[i] {
			if _, ok := it.(*xdm.Raw); ok {
				raws++
			}
		}
		if g, w := xdm.SequenceString(rs[i]), xdm.SequenceString(fs[i]); g != w {
			return fmt.Errorf("result %d prints %q, shredded %q", i, g, w)
		}
		if !xdm.DeepEqualSeq(rs[i], fs[i]) {
			return fmt.Errorf("result %d is not deep-equal to its shredded decode", i)
		}
		for j, it := range rs[i] {
			if g, w := it.ItemString(), fs[i][j].ItemString(); g != w {
				return fmt.Errorf("result %d item %d has string value %q, shredded %q", i, j, g, w)
			}
		}
	}
	if raws != counts.Items || raws > 0 && counts.Fallbacks != [len(FallbackCauses)]int64{} {
		return fmt.Errorf("%d raw items, counted %+v", raws, counts)
	}
	return nil
}

// FuzzRawEqualsShredded: decoding a message raw first, as the originator
// does for a call whose results are returned and never used, prints byte for
// byte what shredding it does, or fails alike — on generated by-fragment
// responses and chunk frames, every non-canonical form the check must turn
// away, and byte-level mutations of all of them.
func FuzzRawEqualsShredded(f *testing.F) {
	rng := rand.New(rand.NewSource(51))
	for _, s := range rawSeeds(f) {
		f.Add(s.chunk, s.data)
		for _, m := range mutations(rng, s.data) {
			f.Add(s.chunk, m)
		}
	}
	f.Fuzz(func(t *testing.T, chunk bool, data []byte) {
		if err := rawAgrees(chunk, data); err != nil {
			t.Fatalf("chunk %v, message %q: %v", chunk, data, err)
		}
	})
}

// TestRawFallbackCauses: every seed message decodes raw, or falls back for
// exactly its cause, once (and then fails if shredding it fails).
func TestRawFallbackCauses(t *testing.T) {
	for _, s := range rawSeeds(t) {
		if err := rawAgrees(s.chunk, s.data); err != nil {
			t.Errorf("%s: %v", s.name, err)
			continue
		}
		if s.chunk {
			continue // TestRawCountsOnLanes counts a stream's frames
		}
		_, _, counts, _, _ := decodeRaw(s.chunk, s.data)
		var want [len(FallbackCauses)]int64
		if s.cause >= 0 {
			want[s.cause] = 1
		}
		if counts.Fallbacks != want || s.items >= 0 && counts.Items != s.items {
			t.Errorf("%s: counted %+v, want fallbacks %v and %d raw items", s.name, counts, want, s.items)
		}
	}
}

// cannedTransport answers every request with one message.
type cannedTransport []byte

func (c cannedTransport) RoundTrip(string, []byte) ([]byte, error) { return c, nil }

// TestRawCountsOnLanes: both lane runners decode a returned-only call's
// by-fragment results raw and count them, and count each fallback by
// cause; a call that is not returned-only shreds as before.
func TestRawCountsOnLanes(t *testing.T) {
	body := &xq.Literal{Val: xdm.NewInteger(1)}
	gather := func(data []byte, returned bool) (xdm.Sequence, RawCounts) {
		t.Helper()
		c := &Client{Transport: cannedTransport(data), Semantics: ByFragment, Metrics: &Metrics{}}
		x := &xq.XRPCExpr{FuncName: "xrpc:f", Body: body, ReturnedOnly: returned}
		res, err := c.CallRemoteBulk("p", x, [][]xdm.Sequence{{}})
		if err != nil {
			t.Fatal(err)
		}
		return res[0], c.Metrics.Snapshot().Raw
	}
	canonical := rawMessage(`<a x="1">t</a>`, false, wholeRef)
	for _, tc := range []struct {
		name     string
		data     []byte
		returned bool
		want     RawCounts
	}{
		{"returned", canonical, true, RawCounts{Items: 2}},
		{"used", canonical, false, RawCounts{}},
		{"inner reference", rawMessage(`<a><b/></a>`, false, "<"+elElement+` fragid="1" nodeid="2"/>`), true, RawCounts{Fallbacks: [2]int64{1, 0}}},
		{"non-canonical", rawMessage(`<a x='1'/>`, false, wholeRef), true, RawCounts{Fallbacks: [2]int64{0, 1}}},
	} {
		res, counts := gather(tc.data, tc.returned)
		if counts != tc.want {
			t.Errorf("%s: counted %+v, want %+v", tc.name, counts, tc.want)
		}
		if _, isRaw := res[0].(*xdm.Raw); isRaw != (tc.want.Items > 0) {
			t.Errorf("%s: first item %T", tc.name, res[0])
		}
	}

	resp := scatterResponse(t, 7)
	cl := &Client{Transport: &scriptedStream{frames: collectFrames(t, resp, 3),
		consumed: new(atomic.Int64)}, Semantics: ByFragment, Metrics: &Metrics{}, Streamed: true}
	x := &xq.XRPCExpr{FuncName: "xrpc:f", Body: body, ReturnedOnly: true}
	got := oneLane(t, cl, x, nil)
	if g, w := xdm.SequenceString(got), xdm.SequenceString(resp.Results[0]); g != w {
		t.Errorf("streamed lane prints %q, want %q", g, w)
	}
	if counts := cl.Metrics.Snapshot().Raw; counts != (RawCounts{Items: 7}) {
		t.Errorf("streamed lane counted %+v, want 7 raw items", counts)
	}
}

// TestRawCountsAddNoAllocation: with metrics on, a returned-only lane
// allocates no more over its metrics-off run than a shredding lane does.
func TestRawCountsAddNoAllocation(t *testing.T) {
	data := rawMessage(`<a x="1">t</a>`, false, wholeRef)
	body := &xq.Literal{Val: xdm.NewInteger(1)}
	extra := map[bool]float64{}
	for _, returned := range []bool{false, true} {
		x := &xq.XRPCExpr{FuncName: "xrpc:f", Body: body, ReturnedOnly: returned}
		lane := func(m *Metrics) float64 {
			c := &Client{Transport: cannedTransport(data), Semantics: ByFragment, Metrics: m}
			iterations := [][]xdm.Sequence{{}}
			return testing.AllocsPerRun(100, func() {
				if _, _, err := c.callBulkCtx(context.Background(), "p", x, iterations, trace.SpanRef{}); err != nil {
					t.Fatal(err)
				}
			})
		}
		extra[returned] = lane(&Metrics{}) - lane(nil)
	}
	if extra[true] > extra[false] {
		t.Errorf("metrics cost a returned-only lane %.0f allocations, a shredding lane %.0f", extra[true], extra[false])
	}
}

// TestRawDecodeCeilings pins what the raw path allocates for the responses
// of a four-lane scatter (58 result elements a lane, each its own
// fragment), per fragment, at the measured value × 1.1 (in comments; the
// shredding decoder measures 0.19 allocations and 748 B a fragment).
func TestRawDecodeCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-based")
	}
	const lanes, frags = 4, 58
	var msgs [][]byte
	for i := 0; i < lanes; i++ {
		data, err := MarshalResponse(scatterResponse(t, frags), nil, nil, projection.Options{})
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, data)
	}
	run := func(returned bool) error {
		for _, data := range msgs {
			var counts RawCounts
			if _, err := decode(new(decoder), data, returned, &counts, (*decoder).response); err != nil {
				return err
			}
			if returned && counts.Items != frags {
				return fmt.Errorf("counted %+v, want %d raw items", counts, frags)
			}
		}
		return nil
	}
	for _, returned := range []bool{true, false} {
		if err := run(returned); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() { _ = run(returned) }) / (lanes * frags)
		bytes := float64(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = run(returned)
			}
		}).AllocedBytesPerOp()) / (lanes * frags)
		if !returned {
			t.Logf("shredding: %.3f allocations and %.0f B a fragment", allocs, bytes)
			continue
		}
		const allocCeiling, byteCeiling = 0.114, 228.0 // measured 0.103 (6 a message) and 207 B
		if allocs > allocCeiling || bytes > byteCeiling {
			t.Errorf("raw: %.3f allocations and %.0f B a fragment, ceilings %.3f and %.0f", allocs, bytes, allocCeiling, byteCeiling)
		} else {
			t.Logf("raw: %.3f allocations and %.0f B a fragment", allocs, bytes)
		}
	}
}
