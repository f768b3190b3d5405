package projection

import (
	"strings"
	"testing"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// fig6Doc builds the tree of Figure 6(a):
// a(b(c(d(e,f)), g(h), i, j, k(l,m)), n(o)) — j is a leaf sibling of k (the
// paper's trace never adds j to D′).
const fig6XML = `<a><b><c><d><e/><f/></d></c><g><h/></g><i/><j/><k><l/><m/></k></b><n><o/></n></a>`

func findElem(d *xdm.Document, name string) *xdm.Node {
	var res *xdm.Node
	d.Root.WalkDescendants(func(n *xdm.Node) bool {
		if n.Kind == xdm.ElementNode && n.Name == name {
			res = n
			return false
		}
		return true
	})
	return res
}

func TestAlgorithm1Figure6(t *testing.T) {
	d := xdm.MustParseString(fig6XML, "fig6.xml")
	U := []*xdm.Node{findElem(d, "i")}
	R := []*xdm.Node{findElem(d, "d"), findElem(d, "k")}
	p, err := Project(U, R, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Expected D′ (Figure 6(b)): b(c(d(e,f)), i, k(l,m)) — a removed by
	// post-processing, g/h, j, n/o pruned.
	got := xdm.SerializeString(p.Root)
	want := `<b><c><d><e/><f/></d></c><i/><k><l/><m/></k></b>`
	if got != want {
		t.Errorf("Figure 6 projection:\n got  %s\n want %s", got, want)
	}
	if p.Root.Name != "b" {
		t.Errorf("post-processed root = %s, want b", p.Root.Name)
	}
	// Mapping translates the originals to kept copies.
	if p.CopyOf(findElem(d, "d")) == nil || p.CopyOf(findElem(d, "i")) == nil {
		t.Error("projection map missing entries for projection nodes")
	}
	if p.CopyOf(findElem(d, "o")) != nil {
		t.Error("pruned node o must not be mapped")
	}
	if p.CopyOf(findElem(d, "a")) != nil {
		t.Error("node a above the projected root must not be mapped")
	}
	if !p.Doc.Frozen() {
		t.Error("projected document must be frozen")
	}
}

func TestProjectUsedKeepsNodeOnly(t *testing.T) {
	d := xdm.MustParseString(`<r><x><deep><tree/></deep></x><y/></r>`, "u.xml")
	U := []*xdm.Node{findElem(d, "x")}
	p, err := Project(U, nil, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := xdm.SerializeString(p.Root)
	if got != `<x/>` {
		t.Errorf("used-only projection = %s, want <x/>", got)
	}
}

func TestProjectReturnedKeepsSubtree(t *testing.T) {
	d := xdm.MustParseString(`<r><x><deep><tree/></deep></x><y/></r>`, "r.xml")
	R := []*xdm.Node{findElem(d, "x")}
	p, err := Project(nil, R, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := xdm.SerializeString(p.Root); got != `<x><deep><tree/></deep></x>` {
		t.Errorf("returned projection = %s", got)
	}
}

func TestProjectAttributes(t *testing.T) {
	d := xdm.MustParseString(`<r><p id="1" other="x"><sub/></p><p id="2" other="y"/></r>`, "a.xml")
	var ids []*xdm.Node
	d.Root.WalkDescendants(func(n *xdm.Node) bool {
		if a := n.Attr("id"); a != nil {
			ids = append(ids, a)
		}
		return true
	})
	if len(ids) != 2 {
		t.Fatal("setup: want 2 id attrs")
	}
	p, err := Project(nil, ids, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := xdm.SerializeString(p.Root)
	want := `<r><p id="1"/><p id="2"/></r>`
	if got != want {
		t.Errorf("attribute projection = %s, want %s", got, want)
	}
	if c := p.CopyOf(ids[0]); c == nil || c.Kind != xdm.AttributeNode {
		t.Error("attribute mapping missing")
	}
}

func TestProjectKeepAllAttributesOption(t *testing.T) {
	d := xdm.MustParseString(`<r><p id="1" must="keep"/></r>`, "ka.xml")
	p1 := findElem(d, "p")
	got, err := Project([]*xdm.Node{p1}, nil, d, Options{KeepAllAttributes: true})
	if err != nil {
		t.Fatal(err)
	}
	if s := xdm.SerializeString(got.Root); s != `<p id="1" must="keep"/>` {
		t.Errorf("KeepAllAttributes = %s", s)
	}
	got2, err := Project([]*xdm.Node{p1}, nil, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := xdm.SerializeString(got2.Root); s != `<p/>` {
		t.Errorf("default attr pruning = %s", s)
	}
}

func TestProjectSchemaKeep(t *testing.T) {
	d := xdm.MustParseString(`<r><p><mandatory/><optional/></p></r>`, "sk.xml")
	keep := func(n *xdm.Node) bool { return n.Name == "mandatory" }
	p, err := Project([]*xdm.Node{findElem(d, "p")}, nil, d, Options{SchemaKeep: keep})
	if err != nil {
		t.Fatal(err)
	}
	if s := xdm.SerializeString(p.Root); s != `<p><mandatory/></p>` {
		t.Errorf("schema-aware projection = %s", s)
	}
}

func TestProjectWholeDocReturned(t *testing.T) {
	d := xdm.MustParseString(`<a><b/><c/></a>`, "w.xml")
	p, err := Project(nil, []*xdm.Node{d.DocElem()}, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := xdm.SerializeString(p.Root); s != `<a><b/><c/></a>` {
		t.Errorf("whole doc = %s", s)
	}
}

func TestProjectErrorWrongDoc(t *testing.T) {
	d1 := xdm.MustParseString(`<a/>`, "1.xml")
	d2 := xdm.MustParseString(`<b/>`, "2.xml")
	if _, err := Project([]*xdm.Node{d2.DocElem()}, nil, d1, Options{}); err == nil {
		t.Error("cross-document projection nodes must error")
	}
	built := xdm.NewDocument("built.xml")
	built.Root.AppendChild(xdm.NewElement("a"))
	if _, err := Project(nil, built.Root.Children, built, Options{}); err == nil {
		t.Error("an unfrozen document must error: its nodes have no ranks to mark")
	}
}

func TestPathParsePrint(t *testing.T) {
	for _, s := range []string{
		`doc("u.xml"::"3")/child::a/child::b`,
		`doc("*"::"7")/descendant::open_auction`,
		`child::seller/attribute::person`,
		`parent::a`,
		`ancestor-or-self::node()`,
		`child::x/root()`,
		`descendant-or-self::node()/id()`,
		`child::*/child::text()`,
	} {
		p, err := ParsePath(s)
		if err != nil {
			t.Errorf("ParsePath(%q): %v", s, err)
			continue
		}
		if p.String() != s {
			t.Errorf("round trip: %q → %q", s, p.String())
		}
	}
}

func TestPathParseErrors(t *testing.T) {
	for _, s := range []string{`doc("u.xml")/a`, `doc(`, `child-a`, `bogus::x`, `a//b`} {
		if _, err := ParsePath(s); err == nil {
			t.Errorf("ParsePath(%q): expected error", s)
		}
	}
}

func TestAllSuffixes(t *testing.T) {
	docA := &DocID{URI: "a.xml", Vertex: 1}
	base, _ := ParsePath(`child::person`)
	base.Doc = docA
	longer := base.Append(PStep{Axis: xq.AxisAttribute, Test: xq.NodeTest{Kind: xq.TestName, Name: "id"}})
	other, _ := ParsePath(`child::unrelated`)
	out := AllSuffixes(PathSet{base}, PathSet{longer, other})
	if len(out) != 1 || out[0].String() != "attribute::id" {
		t.Errorf("AllSuffixes = %s", out)
	}
	// Exact match yields the empty relative path (self).
	out2 := AllSuffixes(PathSet{base}, PathSet{base})
	if len(out2) != 1 || len(out2[0].Steps) != 0 {
		t.Errorf("exact suffix = %s", out2)
	}
}

func TestAnalyzeDocRules(t *testing.T) {
	q := xq.MustParseQuery(`doc("d.xml")/child::a/child::b`)
	if err := xq.Normalize(q); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	r := a.Returned[q.Body]
	if len(r) != 1 {
		t.Fatalf("returned = %s", r)
	}
	if r[0].Doc == nil || r[0].Doc.URI != "d.xml" {
		t.Errorf("doc id = %+v", r[0].Doc)
	}
	if got := pathStepsString(r[0]); got != "child::a/child::b" {
		t.Errorf("steps = %s", got)
	}
	// The traversed prefixes are used.
	u := a.Used[q.Body]
	if len(u) < 2 {
		t.Errorf("used = %s", u)
	}
}

func TestAnalyzeComputedDocIsWildcard(t *testing.T) {
	q := xq.MustParseQuery(`doc(concat("d",".xml"))/child::a`)
	if err := xq.Normalize(q); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	r := a.Returned[q.Body]
	if len(r) != 1 || r[0].Doc == nil || !r[0].Doc.Wildcard() {
		t.Errorf("computed doc should be wildcard: %s", r)
	}
}

func TestAnalyzeRootAndID(t *testing.T) {
	q := xq.MustParseQuery(`root(doc("d.xml")/child::a/child::b)`)
	if err := xq.Normalize(q); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	r := a.Returned[q.Body]
	if len(r) != 1 || !strings.HasSuffix(r[0].String(), "root()") {
		t.Errorf("ROOT rule: %s", r)
	}

	q2 := xq.MustParseQuery(`id("i1", doc("d.xml"))`)
	if err := xq.Normalize(q2); err != nil {
		t.Fatal(err)
	}
	a2, err := Analyze(q2)
	if err != nil {
		t.Fatal(err)
	}
	r2 := a2.Returned[q2.Body]
	if len(r2) != 1 || !strings.HasSuffix(r2[0].String(), "id()") {
		t.Errorf("ID rule: %s", r2)
	}
}

func TestAnalyzeFLWORPredicatePaths(t *testing.T) {
	// The benchmark-query shape: selection via if inside for.
	q := xq.MustParseQuery(`
		let $s := doc("x.xml")/child::site/child::people/child::person
		return for $x in $s return
		  if ($x/descendant::age < 40) then $x else ()`)
	if err := xq.Normalize(q); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	r := a.Returned[q.Body]
	if len(r) != 1 || pathStepsString(r[0]) != "child::site/child::people/child::person" {
		t.Errorf("returned = %s", r)
	}
	// age must appear in used paths with subtree widening (atomized).
	var foundAge bool
	for _, p := range a.Used[q.Body] {
		if strings.Contains(p.String(), "descendant::age/descendant-or-self::node()") {
			foundAge = true
		}
	}
	if !foundAge {
		t.Errorf("used = %s", a.Used[q.Body])
	}
}

func TestAnalyzeXRPCRelativePaths(t *testing.T) {
	// fcn2 style: remote body uses $param/child::id; results /child::grade.
	q := xq.MustParseQuery(`
	declare function fcn2($p as node()*) as node()*
	{ for $e in doc("xrpc://B/c.xml")/child::enroll/child::exam return
	  if ($e/attribute::id = $p/child::id) then $e else () };
	declare function fcn1() as node()*
	{ doc("xrpc://A/s.xml")/child::people/child::person };
	let $t := execute at {"A"} {fcn1()} return
	(execute at {"B"} {fcn2($t)})/child::grade`)
	if err := xq.Normalize(q); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	// Find the second XRPCExpr (target "B").
	var xB *xq.XRPCExpr
	xq.Walk(q.Body, func(e xq.Expr) bool {
		if x, ok := e.(*xq.XRPCExpr); ok {
			if lit, isLit := x.Target.(*xq.Literal); isLit && lit.Val.S == "B" {
				xB = x
			}
		}
		return true
	})
	if xB == nil {
		t.Fatal("no XRPC expr targeting B")
	}
	rel := a.Relative(xB, q.Body)
	if len(rel.ParamUsed) != 1 {
		t.Fatalf("param count = %d", len(rel.ParamUsed))
	}
	// The parameter is used via child::id (atomized → subtree widened).
	if !strings.Contains(rel.ParamUsed[0].String(), "child::id") {
		t.Errorf("param used = %s", rel.ParamUsed[0])
	}
	// The result is navigated with child::grade by the caller.
	if !strings.Contains(rel.ResultUsed.String()+rel.ResultReturn.String(), "child::grade") {
		t.Errorf("result paths: used=%s returned=%s", rel.ResultUsed, rel.ResultReturn)
	}
}

func TestRuntimeVsCompileTimePrecision(t *testing.T) {
	// Compile-time projection keeps all persons; runtime keeps only those
	// matching the (runtime-evaluated) selection — the §VII claim.
	xml := `<site><people>` +
		`<person id="p1"><age>30</age><desc>aaaa</desc></person>` +
		`<person id="p2"><age>50</age><desc>bbbb</desc></person>` +
		`<person id="p3"><age>20</age><desc>cccc</desc></person>` +
		`</people></site>`
	d := xdm.MustParseString(xml, "xmk.xml")
	personPath, _ := ParsePath(`child::site/child::people/child::person/descendant-or-self::node()`)
	agePath, _ := ParsePath(`child::site/child::people/child::person/child::age/descendant-or-self::node()`)
	ct, err := CompileTimeProject(PathSet{agePath}, PathSet{personPath}, d, Options{KeepAllAttributes: true})
	if err != nil {
		t.Fatal(err)
	}
	// Runtime: the selection already happened; only person p2 ships.
	var selected []*xdm.Node
	d.Root.WalkDescendants(func(n *xdm.Node) bool {
		if n.Name == "person" && n.Attr("id").Text == "p2" {
			selected = append(selected, n)
		}
		return true
	})
	rt, err := RuntimeProject(selected, nil, nil, d, Options{KeepAllAttributes: true})
	if err != nil {
		t.Fatal(err)
	}
	ctSize := xdm.SerializedSize(ct.Root)
	rtSize := xdm.SerializedSize(rt.Root)
	if rtSize >= ctSize {
		t.Errorf("runtime projection (%d bytes) should be smaller than compile-time (%d bytes)", rtSize, ctSize)
	}
	if !strings.Contains(xdm.SerializeString(rt.Root), `id="p2"`) {
		t.Errorf("runtime projection lost the selected person: %s", xdm.SerializeString(rt.Root))
	}
}

func TestSplitSubtreePaths(t *testing.T) {
	p1, _ := ParsePath(`child::a/descendant-or-self::node()`)
	p2, _ := ParsePath(`child::b`)
	withSub, plain := SplitSubtreePaths(PathSet{p1, p2})
	if len(withSub) != 1 || withSub[0].String() != "child::a" {
		t.Errorf("withSubtree = %s", withSub)
	}
	if len(plain) != 1 || plain[0].String() != "child::b" {
		t.Errorf("plain = %s", plain)
	}
}

func TestEvalPathsRootAndID(t *testing.T) {
	d := xdm.MustParseString(`<db><item id="i1"/><ref idref="i1"/></db>`, "ei.xml")
	item := findElem(d, "item")
	rootP, _ := ParsePath(`root()`)
	got := EvalPaths([]*xdm.Node{item}, PathSet{rootP})
	if len(got) != 1 || got[0] != d.Root {
		t.Errorf("root() eval = %v", got)
	}
	idP, _ := ParsePath(`id()`)
	ids := EvalPaths([]*xdm.Node{item}, PathSet{idP})
	if len(ids) != 1 || ids[0].Name != "item" {
		t.Errorf("id() eval = %v", ids)
	}
	idrefP, _ := ParsePath(`idref()`)
	refs := EvalPaths([]*xdm.Node{item}, PathSet{idrefP})
	if len(refs) != 1 || refs[0].Name != "ref" {
		t.Errorf("idref() eval = %v", refs)
	}
}

func pathStepsString(p Path) string {
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		parts[i] = s.String()
	}
	return strings.Join(parts, "/")
}

// TestEvalPathsOrderedFastPath: the downward-axis fast path (sort skipped
// when the step context is ordered and subtree-disjoint) must produce the
// same node sets as contexts that force the general sorting path — nested,
// duplicated, and reversed contexts included.
func TestEvalPathsOrderedFastPath(t *testing.T) {
	d := xdm.MustParseString(
		`<lib><book id="b0"><title>t0</title><pages>100</pages></book>`+
			`<book id="b1"><title>t1</title><pages>200</pages></book>`+
			`<book id="b2"><title>t2</title></book></lib>`, "fp.xml")
	var books []*xdm.Node
	d.Root.WalkDescendants(func(n *xdm.Node) bool {
		if n.Kind == xdm.ElementNode && n.Name == "book" {
			books = append(books, n)
		}
		return true
	})
	paths := []string{
		`child::title`,
		`descendant-or-self::node()`,
		`attribute::id`,
		`child::title/parent::node()`, // reverse step disables the fast path mid-path
	}
	serialize := func(nodes []*xdm.Node) string {
		var parts []string
		for _, n := range nodes {
			parts = append(parts, xdm.SerializeString(n))
		}
		return strings.Join(parts, "|")
	}
	for _, ps := range paths {
		p, err := ParsePath(ps)
		if err != nil {
			t.Fatal(err)
		}
		// Ordered-disjoint context: fast path applies on the first step.
		want := serialize(EvalPaths([]*xdm.Node{books[0], books[1], books[2]}, PathSet{p}))
		// Reversed and duplicated contexts force the general path.
		for _, ctx := range [][]*xdm.Node{
			{books[2], books[1], books[0]},
			{books[0], books[0], books[1], books[2], books[2]},
		} {
			if got := serialize(EvalPaths(ctx, PathSet{p})); got != want {
				t.Errorf("path %s ctx %v: fast path and general path disagree:\n got %q\nwant %q", ps, ctx, got, want)
			}
		}
	}
}
