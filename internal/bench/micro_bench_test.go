package bench

// Micro-benchmarks for the evaluation hot paths: axis steps, document-order
// sort, and the XRPC fragment codec. Run with
//
//	go test ./internal/bench -run=NONE -bench=Micro -benchmem
//
// DESIGN.md records the before/after numbers of the pre/size numbering and
// one-pass codec-table overhaul.

import (
	"math/rand"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/testkit"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
	"distxq/internal/xrpc"
)

func microPeopleDoc() *xdm.Document {
	cfg := xmark.DefaultConfig()
	cfg.Persons, cfg.Items, cfg.Auctions = 200, 0, 0
	return xmark.PeopleDocument(cfg, "micro-people.xml")
}

func microEngine(doc *xdm.Document) *eval.Engine {
	return eval.NewEngine(eval.ResolverFunc(func(string) (*xdm.Document, error) {
		return doc, nil
	}))
}

// BenchmarkMicroAxisSteps measures whole path expressions through evalPath:
// a descendant scan with a predicate, a multi-step forward path, and a
// reverse-axis path.
func BenchmarkMicroAxisSteps(b *testing.B) {
	doc := microPeopleDoc()
	for _, tc := range []struct{ name, query string }{
		{"descendant-predicate", `count(doc("p")//person[descendant::age > 30])`},
		{"multi-step-forward", `count(doc("p")//person/name/text())`},
		{"reverse-ancestor", `count(doc("p")//age/ancestor::person)`},
		{"following-sibling", `count(doc("p")//person/following-sibling::person)`},
	} {
		b.Run(tc.name, func(b *testing.B) {
			eng := microEngine(doc)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := testkit.Query(eng, tc.query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMicroSortDocOrder measures SortDocOrder on shuffled input (full
// sort + dedup) and on already-ordered input (the O(n) fast path every
// forward axis step hits).
func BenchmarkMicroSortDocOrder(b *testing.B) {
	doc := microPeopleDoc()
	var sorted []*xdm.Node
	doc.Root.WalkDescendants(func(n *xdm.Node) bool {
		sorted = append(sorted, n)
		return true
	})
	shuffled := append([]*xdm.Node(nil), sorted...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	scratch := make([]*xdm.Node, len(shuffled))
	b.Run("shuffled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(scratch, shuffled)
			xdm.SortDocOrder(scratch)
		}
	})
	b.Run("presorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(scratch, sorted)
			xdm.SortDocOrder(scratch)
		}
	})
}

// BenchmarkMicroFragmentCodec measures an XRPC round trip (marshal request +
// parse request) shipping one big fragment with many node references into it
// — the workload the one-pass numbering tables turn from O(n²) into O(n).
func BenchmarkMicroFragmentCodec(b *testing.B) {
	doc := microPeopleDoc()
	seq := xdm.Sequence{doc.DocElem()}
	doc.Root.WalkDescendants(func(n *xdm.Node) bool {
		if n.Kind == xdm.ElementNode && (n.Name == "name" || n.Name == "age") {
			seq = append(seq, n)
		}
		return true
	})
	b.Logf("fragment refs per message: %d", len(seq))
	req := &xrpc.Request{
		Method:    "f1",
		Arity:     1,
		Semantics: xrpc.ByFragment,
		Module:    `declare function f1($x as node()*) as node()* { $x };`,
		Static:    eval.DefaultStatic(),
		Calls:     [][]xdm.Sequence{{seq}},
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := xrpc.MarshalRequest(req, nil, nil, projection.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := xrpc.ParseRequest(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroServerHandle measures one full server-side exchange: shred
// the request, evaluate the shipped function, and serialize the response.
// The response used to be marshalled twice just to patch the serde-ns
// timing attribute; it is now marshalled once and the attribute is patched
// in the serialized bytes.
func BenchmarkMicroServerHandle(b *testing.B) {
	doc := microPeopleDoc()
	srv := &xrpc.Server{Engine: microEngine(doc)}
	var seq xdm.Sequence
	doc.Root.WalkDescendants(func(n *xdm.Node) bool {
		if n.Kind == xdm.ElementNode && n.Name == "person" {
			seq = append(seq, n)
		}
		return true
	})
	req := &xrpc.Request{
		Method:    "f1",
		Arity:     1,
		Semantics: xrpc.ByFragment,
		Module:    `declare function f1($x as node()*) as node()* { $x/child::name };`,
		Static:    eval.DefaultStatic(),
		Calls:     [][]xdm.Sequence{{seq}},
	}
	data, err := xrpc.MarshalRequest(req, nil, nil, projection.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Handle(data); err != nil {
			b.Fatal(err)
		}
	}
}
