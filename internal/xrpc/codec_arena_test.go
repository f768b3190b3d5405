package xrpc

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// TestAdoptedFragmentsKeepStructure: the decoder fills each fragment's
// content straight into a fresh document, its nodes and child arrays cut
// from the message's one arena and the documents from one slab. Every
// decoded node must come out with the parent, sibling index, owner document
// and document order a freshly built document would have — and growing one
// decoded tree must not reach into another.
func TestAdoptedFragmentsKeepStructure(t *testing.T) {
	fx := newWireFixture(t)
	resp := &Response{Semantics: ByFragment, Results: []xdm.Sequence{
		{fx.book0, fx.comment, fx.book1, fx.title1, fx.id1, fx.para, fx.paraTail},
	}}
	data, err := MarshalResponse(resp, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	docs := fragDocs(got.frags)
	if len(docs) != 4 {
		t.Fatalf("%d fragment documents, want 4", len(docs))
	}
	var prev *xdm.Node
	for i, d := range docs {
		if !d.Frozen() {
			t.Fatalf("fragment %d not frozen", i)
		}
		var walk func(n *xdm.Node)
		walk = func(n *xdm.Node) {
			if n.Doc != d {
				t.Errorf("fragment %d: %s %q belongs to another document", i, n.Kind, n.Name)
			}
			if prev != nil && xdm.Compare(prev, n) >= 0 {
				t.Errorf("fragment %d: %s %q not after its predecessor in document order", i, n.Kind, n.Name)
			}
			prev = n
			for j, a := range n.Attrs {
				if a.Parent != n || int(a.SiblingIndex()) != j || a.Doc != d {
					t.Errorf("fragment %d: attribute %s of <%s> mislinked", i, a.Name, n.Name)
				}
				prev = a
			}
			for j, c := range n.Children {
				if c.Parent != n || int(c.SiblingIndex()) != j {
					t.Errorf("fragment %d: child %d of %s %q mislinked", i, j, n.Kind, n.Name)
				}
				walk(c)
			}
		}
		walk(d.Root)
	}
	items := got.Results[0]
	if items[3].(*xdm.Node).Parent != items[2].(*xdm.Node) {
		t.Error("title is no longer the child of its book inside the shared fragment")
	}
	if f := items[0].(*xdm.Node).Following(); f != nil {
		t.Errorf("a fragment root has a following node %q: fragments leaked into each other", f.Name)
	}

	// Grow the first decoded tree; its neighbours in the message's slabs
	// (the next fragments' roots and children) must not change.
	want := make([]string, len(docs))
	for i, d := range docs {
		want[i] = xdm.SerializeString(d.Root)
	}
	book0 := items[0].(*xdm.Node)
	book0.AppendChild(xdm.NewElement("appended"))
	book0.SetAttr("extra", "1")
	book0.Doc.Root.AppendChild(xdm.NewComment("sibling of the root"))
	for i, d := range docs[1:] {
		if s := xdm.SerializeString(d.Root); s != want[i+1] {
			t.Errorf("fragment %d changed when fragment 0 grew:\n got %s\nwant %s", i+1, s, want[i+1])
		}
	}
}

// fragDocs returns the documents of decoded fragments.
func fragDocs(frags []*xdm.Node) []*xdm.Document {
	docs := make([]*xdm.Document, len(frags))
	for i, f := range frags {
		docs[i] = f.Doc
	}
	return docs
}

// TestPatchSerdeNS: the in-place patch with a shorter, an equal-length and a
// longer value, with and without spare capacity, touches only the first
// serde-ns attribute and keeps every other byte.
func TestPatchSerdeNS(t *testing.T) {
	const head = `<xrpc:response semantics="by-value" exec-ns="7" serde-ns="`
	const tail = `"><xrpc:call>text with serde-ns="999" inside</xrpc:call></xrpc:response>`
	for _, tc := range []struct {
		name     string
		old, new int64
	}{
		{"shorter", 123456, 78},
		{"equal", 123456, 654321},
		{"longer", 0, 123456789},
		{"longest", 5, 9223372036854775807},
	} {
		for _, spare := range []int{0, 1, 64} {
			msg := fmt.Sprintf("%s%d%s", head, tc.old, tail)
			data := make([]byte, len(msg), len(msg)+spare)
			copy(data, msg)
			got := patchSerdeNS(data, tc.new)
			if want := fmt.Sprintf("%s%d%s", head, tc.new, tail); string(got) != want {
				t.Errorf("%s, %d spare: got %s\nwant %s", tc.name, spare, got, want)
			}
			if grow := len(got) - len(msg); grow <= spare && &got[0] != &data[0] {
				t.Errorf("%s, %d spare: message copied although it fit", tc.name, spare)
			}
		}
	}
	plain := []byte(`<env:Fault>no attribute here</env:Fault>`)
	if got := patchSerdeNS(plain, 5); string(got) != string(plain) {
		t.Errorf("message without the attribute changed: %s", got)
	}
}

// TestHandlePatchesSerdeInPlace: the serde figure a response carries is the
// shred plus marshal time the server measured, patched into the message
// Handle returns; the message still parses and reports exactly that figure.
func TestHandlePatchesSerdeInPlace(t *testing.T) {
	srv := newPeer(mapResolver{"d.xml": `<r><v>1</v><v>2</v></r>`})
	srv.Metrics = &Metrics{}
	req := &Request{
		Method: "f", Arity: 0, Semantics: ByFragment, Static: eval.DefaultStatic(),
		Module: `declare function f() as item()* { doc("d.xml")//v };`,
		Calls:  [][]xdm.Sequence{{}},
	}
	data, err := MarshalRequest(req, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := srv.Handle(data)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if got := srv.Metrics.Snapshot().ServerSerdeNS; resp.SerializeNanos != got || got <= 0 {
		t.Errorf("message says serde-ns=%d, server measured %d", resp.SerializeNanos, got)
	}
	if xdm.SequenceString(resp.Results[0]) != "<v>1</v> <v>2</v>" {
		t.Errorf("result: %s", xdm.SequenceString(resp.Results[0]))
	}
}

// countingModule is a shipped module whose shape differs per n: its
// variable's name does (the cache keys on shapes, and the constant alone is
// a hole).
func countingModule(n int) string {
	return fmt.Sprintf(`declare function f() as item()* { let $v%d := %d return $v%d };`, n, n, n)
}

// shapeOf is the module-cache key of module text src.
func shapeOf(src string) []byte {
	key, _ := xq.AppendShapeKey(nil, src)
	return key
}

// TestModuleCacheParsesOnce: the same module shipped again is served from
// the cache — the very same parsed query, compiled exactly at its admission —
// once it has been seen twice; a module seen once leaves no Program behind;
// unparsable and unnormalizable modules are never cached and fault on every
// request exactly as before.
func TestModuleCacheParsesOnce(t *testing.T) {
	srv := Server{Engine: eval.NewEngine(nil)}
	src := countingModule(1)
	q1, _, err := srv.module(src)
	if err != nil {
		t.Fatal(err)
	}
	q2, _, err := srv.module(src) // second sighting: admitted
	if err != nil {
		t.Fatal(err)
	}
	q3, _, err := srv.module(src)
	if err != nil {
		t.Fatal(err)
	}
	if q1 == q2 {
		t.Error("a module seen once was already cached")
	}
	if q2 != q3 {
		t.Error("a module shipped three times was parsed three times")
	}
	if q1.CompiledArtifact() != nil {
		t.Error("a module seen once was compiled")
	}
	if q2.CompiledArtifact() == nil {
		t.Error("an admitted module carries no Program")
	}
	if c := srv.Engine.StatsSnapshot().Compilations; c != 1 {
		t.Errorf("%d compilations after three sendings of one module, want 1 (at admission)", c)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := srv.module(`declare function f( {`); err == nil || !strings.Contains(err.Error(), "does not parse") {
			t.Fatalf("unparsable module: %v", err)
		}
	}
	dup := `declare function f() as item()* { 1 }; declare function f() as item()* { 2 };`
	for i := 0; i < 3; i++ {
		q, _, err := srv.module(dup)
		if err != nil {
			t.Fatalf("a module that fails to normalize must still be handed to evaluation: %v", err)
		}
		if _, err := eval.NewEngine(nil).EvalFunctionDeadline(q, "f", nil, nil, time.Time{}); err == nil ||
			!strings.Contains(err.Error(), "duplicate function") {
			t.Fatalf("evaluation of an unnormalizable module: %v", err)
		}
	}
	if n := len(srv.modules.entries); n != 1 {
		t.Errorf("%d cached modules, want 1", n)
	}
}

// TestModuleCacheCopiesAdmittedText: a decoded module text aliases the one
// string copy of its request, next to the request's parameters; the cache
// admits a copy of its own, so a cached module does not pin the request it
// arrived in.
func TestModuleCacheCopiesAdmittedText(t *testing.T) {
	srv := Server{Engine: eval.NewEngine(nil)}
	data, err := MarshalRequest(&Request{
		Method: "f", Arity: 1, Semantics: ByValue, Module: countingModule(7),
		Calls: [][]xdm.Sequence{{{xdm.NewString(strings.Repeat("p", 40<<10))}}},
	}, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	within := func(s string, msg *Request) bool {
		p, m := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(msg.Module)))
		return p+uintptr(len(data)) > m && p < m+uintptr(len(data))
	}
	var req *Request
	for i := 0; i < 2; i++ { // the second sighting admits
		if req, err = ParseRequest(data); err != nil {
			t.Fatal(err)
		}
		if _, _, err := srv.module(req.Module); err != nil {
			t.Fatal(err)
		}
	}
	if !within(req.Calls[0][0][0].(xdm.Atomic).S, req) {
		t.Fatal("the fixture's module does not alias its request")
	}
	if len(srv.modules.entries) != 1 {
		t.Fatalf("%d modules cached, want 1", len(srv.modules.entries))
	}
	for key := range srv.modules.entries {
		if within(key, req) {
			t.Error("the cache key points into the request")
		}
		if ring := srv.modules.ring[0]; unsafe.StringData(ring) != unsafe.StringData(key) {
			t.Error("the ring holds another string than the key")
		}
	}
}

// TestModuleCacheBounded: a thousand distinct modules, each shipped twice in
// a row so that every one is admitted (and compiled, once), never hold more
// than the bound — evicting a module drops its Program with it — and the
// survivors are the most recent.
func TestModuleCacheBounded(t *testing.T) {
	srv := Server{Engine: eval.NewEngine(nil)}
	for i := 0; i < 1000; i++ {
		for rep := 0; rep < 2; rep++ {
			if _, _, err := srv.module(countingModule(i)); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(srv.modules.entries); n > moduleCacheSize {
			t.Fatalf("after %d modules the cache holds %d, bound %d", i+1, n, moduleCacheSize)
		}
	}
	if n := len(srv.modules.entries); n != moduleCacheSize {
		t.Errorf("cache holds %d modules, want a full %d", n, moduleCacheSize)
	}
	if srv.modules.get(shapeOf(countingModule(999))) == nil || srv.modules.get(shapeOf(countingModule(1000-moduleCacheSize))) == nil {
		t.Error("the most recent modules are not cached")
	}
	if srv.modules.get(shapeOf(countingModule(1000-moduleCacheSize-1))) != nil {
		t.Error("the oldest module survived eviction")
	}
	for src, q := range srv.modules.entries {
		if q == nil || q.CompiledArtifact() == nil {
			t.Errorf("cached module %q carries no Program", src)
		}
	}
	if c := srv.Engine.StatsSnapshot().Compilations; c != 1000 {
		t.Errorf("%d compilations for 1000 admissions, want one each", c)
	}
	// A workload that never repeats a text within the doorkeeper's memory
	// retains nothing and compiles nothing.
	cold := Server{Engine: eval.NewEngine(nil)}
	for round := 0; round < 3; round++ {
		for i := 0; i < 4*moduleCacheSize; i++ {
			if _, _, err := cold.module(countingModule(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, c := len(cold.modules.entries), cold.Engine.StatsSnapshot().Compilations; n != 0 || c != 0 {
		t.Errorf("a cycle of %d texts left %d modules cached and %d compiled", 4*moduleCacheSize, n, c)
	}
}

// TestModuleCacheConcurrent hammers one server with a few shared modules
// from many goroutines, evaluating each (evaluation normalizes; a raw parse
// in the cache would race under -race). However the admissions interleave,
// each module compiles exactly once.
func TestModuleCacheConcurrent(t *testing.T) {
	srv := newPeer(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := (g + i) % 5
				req := &Request{
					Method: "f", Arity: 0, Semantics: ByValue, Module: countingModule(n),
					Calls: [][]xdm.Sequence{{}},
				}
				data, err := MarshalRequest(req, nil, nil, projection.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				out, err := srv.Handle(data)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := ParseResponse(out)
				if err != nil || xdm.SequenceString(resp.Results[0]) != fmt.Sprint(n) {
					t.Errorf("module %d answered %v, %v", n, resp, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c := srv.Engine.StatsSnapshot().Compilations; c != 5 {
		t.Errorf("%d compilations for 5 modules under concurrent admission, want 5", c)
	}
}
