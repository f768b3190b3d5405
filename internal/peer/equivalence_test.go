package peer

import (
	"fmt"
	"testing"

	"distxq/internal/core"
	"distxq/internal/xdm"
)

// TestDecompositionEquivalence is the paper's central correctness claim,
// checked wholesale: for any query Q, the decomposed Q′ under every strategy
// satisfies Q(D) = Q′(D) by XQuery deep-equal semantics. Data shipping (no
// decomposition, local execution) is the reference.
func TestDecompositionEquivalence(t *testing.T) {
	n := NewNetwork()
	a := n.AddPeer("A")
	b := n.AddPeer("B")
	local := n.AddPeer("local")
	if err := a.LoadXML("store.xml", `<store>
		<book id="b1" cat="db"><title>XML Processing</title><price>30</price>
			<authors><author>Zhang</author><author>Tang</author></authors></book>
		<book id="b2" cat="db"><title>Query Shipping</title><price>45</price>
			<authors><author>Boncz</author></authors></book>
		<book id="b3" cat="os"><title>Kernels</title><price>25</price>
			<authors><author>Tanenbaum</author></authors></book>
	</store>`); err != nil {
		t.Fatal(err)
	}
	if err := b.LoadXML("sales.xml", `<sales>
		<sale book="b1" qty="3"/><sale book="b1" qty="1"/>
		<sale book="b2" qty="7"/><sale book="b4" qty="2"/>
	</sales>`); err != nil {
		t.Fatal(err)
	}
	if err := a.LoadXML("tree.xml",
		`<root><l1><l2 k="x"><l3/></l2><l2 k="y"/></l1><l1><l2 k="z"><l3/><l3/></l2></l1></root>`); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		// plain downward navigation
		`doc("xrpc://A/store.xml")//book/title`,
		`doc("xrpc://A/store.xml")/store/book/@id`,
		`count(doc("xrpc://A/store.xml")//author)`,
		// predicates, numeric comparisons, positions
		`doc("xrpc://A/store.xml")//book[price > 28]/title/text()`,
		`doc("xrpc://A/store.xml")//book[@cat = "db"][2]/@id`,
		`(doc("xrpc://A/store.xml")//book)[2]/title`,
		// reverse/horizontal axes
		`doc("xrpc://A/store.xml")//author/parent::authors/parent::book/@id`,
		`doc("xrpc://A/tree.xml")//l3/ancestor::l1`,
		`doc("xrpc://A/tree.xml")//l2[@k = "y"]/preceding-sibling::l2/@k`,
		`doc("xrpc://A/tree.xml")//l2[@k = "x"]/following::l2/@k`,
		// FLWOR, order by, quantifiers, typeswitch
		`for $bk in doc("xrpc://A/store.xml")//book
		 order by number($bk/price) descending return $bk/title/text()`,
		`for $bk in doc("xrpc://A/store.xml")//book
		 where some $au in $bk//author satisfies $au = "Tang"
		 return $bk/@id`,
		`typeswitch (doc("xrpc://A/store.xml")//book[1])
		 case $nn as node() return name($nn) default return "none"`,
		// set operators and node comparisons on one host
		`count(doc("xrpc://A/store.xml")//book union doc("xrpc://A/store.xml")//book[price > 28])`,
		`doc("xrpc://A/store.xml")//book[1] << doc("xrpc://A/store.xml")//book[2]`,
		// aggregates and string functions
		`sum(for $sl in doc("xrpc://B/sales.xml")//sale return number($sl/@qty))`,
		`string-join(doc("xrpc://A/store.xml")//author/text(), ";")`,
		// cross-peer join (the Q2/semijoin family)
		`for $bk in doc("xrpc://A/store.xml")//book
		 where $bk/@id = doc("xrpc://B/sales.xml")//sale/@book
		 return $bk/title/text()`,
		`for $sl in doc("xrpc://B/sales.xml")//sale
		 where $sl/@book = doc("xrpc://A/store.xml")//book[@cat = "db"]/@id
		 return $sl/@qty`,
		// constructors over remote data (attribute value templates are out of
		// scope; computed constructors cover the same ground)
		`element report { attribute n {count(doc("xrpc://A/store.xml")//book)},
		    doc("xrpc://A/store.xml")//book[price < 28]/title }`,
		// deep-equal and distinct-values over shipped values
		`distinct-values(doc("xrpc://B/sales.xml")//sale/@book)`,
		`deep-equal(doc("xrpc://A/store.xml")//book[1]/authors,
		            doc("xrpc://A/store.xml")//book[2]/authors)`,
		// arithmetic over joined data
		`sum(for $bk in doc("xrpc://A/store.xml")//book
		     for $sl in doc("xrpc://B/sales.xml")//sale
		     where $sl/@book = $bk/@id
		     return number($bk/price) * number($sl/@qty))`,
		// root()/base-uri over remote nodes
		`name(root(doc("xrpc://A/tree.xml")//l3[1])/root)`,
		// empty results
		`doc("xrpc://A/store.xml")//book[price > 999]/title`,
	}

	for i, q := range queries {
		baselineSess := n.NewSession(local, core.DataShipping)
		want, _, err := baselineSess.Query(q)
		if err != nil {
			t.Fatalf("query %d baseline: %v\n%s", i, err, q)
		}
		for _, strat := range []core.Strategy{core.ByValue, core.ByFragment, core.ByProjection} {
			sess := n.NewSession(local, strat)
			got, _, err := sess.Query(q)
			if err != nil {
				t.Errorf("query %d under %s: %v\n%s", i, strat, err, q)
				continue
			}
			if !xdm.DeepEqualSeq(want, got) || xdm.SequenceString(want) != xdm.SequenceString(got) {
				t.Errorf("query %d under %s differs\n got: %s\nwant: %s\nquery: %s",
					i, strat, xdm.SequenceString(got), xdm.SequenceString(want), q)
			}
		}
	}
}

// TestConcurrentSessions exercises the engine/transport thread safety: many
// goroutines querying the same federation under different strategies.
func TestConcurrentSessions(t *testing.T) {
	n := NewNetwork()
	a := n.AddPeer("A")
	if err := a.LoadXML("d.xml", `<r><v>1</v><v>2</v><v>3</v></r>`); err != nil {
		t.Fatal(err)
	}
	local := n.AddPeer("local")
	done := make(chan error, 24)
	for i := 0; i < 24; i++ {
		strat := []core.Strategy{core.DataShipping, core.ByValue, core.ByFragment, core.ByProjection}[i%4]
		go func(s core.Strategy) {
			sess := n.NewSession(local, s)
			res, _, err := sess.Query(`sum(doc("xrpc://A/d.xml")//v)`)
			if err != nil {
				done <- err
				return
			}
			if xdm.SequenceString(res) != "6" {
				done <- fmt.Errorf("%s: got %s", s, xdm.SequenceString(res))
				return
			}
			done <- nil
		}(strat)
	}
	for i := 0; i < 24; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestCaptureFreeGeneratedNames pins two plans whose generated variables
// used to capture a user's variable of the same name: the decomposer's
// $dot1 parameter inside a shipped body binding $dot1, and the normalizer's
// $p_1 parameter inside an inlined body binding $p_1. Every strategy must
// return the data-shipping answer — for the execute-at query, the answer of
// its function called locally.
func TestCaptureFreeGeneratedNames(t *testing.T) {
	n := NewNetwork()
	a := n.AddPeer("A")
	b := n.AddPeer("B")
	local := n.AddPeer("local")
	if err := b.LoadXML("b.xml", `<r><k>k</k><k>j</k></r>`); err != nil {
		t.Fatal(err)
	}
	if err := a.LoadXML("a.xml", `<r><item id="k"/><item id="j"/><item id="k"/></r>`); err != nil {
		t.Fatal(err)
	}
	semijoin := `for $x in doc("xrpc://B/b.xml")/child::r/child::k
		return count(for $dot1 in doc("xrpc://A/a.xml")/child::r/child::item
		             return if ($dot1/attribute::id = $x) then $dot1 else ())`
	const f = `declare function f($n as xs:integer) as item()* { let $p_1 := 5 return $n + $p_1 };`
	for _, c := range []struct{ query, local, want string }{
		{semijoin, semijoin, "2 1"},
		{f + `execute at {"A"} { f(1) }`, f + `f(1)`, "6"},
	} {
		want, _, err := n.NewSession(local, core.DataShipping).Query(c.local)
		if err != nil {
			t.Fatal(err)
		}
		if got := xdm.SequenceString(want); got != c.want {
			t.Fatalf("data shipping returns %q, want %q\n%s", got, c.want, c.query)
		}
		for _, strat := range []core.Strategy{core.ByValue, core.ByFragment, core.ByProjection} {
			got, _, err := n.NewSession(local, strat).Query(c.query)
			if err != nil {
				t.Fatalf("%s: %v\n%s", strat, err, c.query)
			}
			if !xdm.DeepEqualSeq(want, got) || xdm.SequenceString(want) != xdm.SequenceString(got) {
				t.Errorf("%s returns %q, data shipping %q\n%s", strat, xdm.SequenceString(got), xdm.SequenceString(want), c.query)
			}
		}
	}
}
