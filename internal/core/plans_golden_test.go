package core_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distxq/internal/core"
	"distxq/internal/xmark"
	"distxq/internal/xq"
)

// qn2Text is the paper's Qn2 (Table III) over Q2's xrpc:// documents.
const qn2Text = `
(let $t := (let $s := doc("xrpc://A/students.xml")/child::people/child::person
            return for $x in $s return
                   if ($x/child::tutor = $s/child::name) then $x else ())
 return for $e in (let $c := doc("xrpc://B/course42.xml")
                   return $c/child::enroll/child::exam)
        return if ($e/attribute::id = $t/child::id) then $e else ())/child::grade`

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/plans from the current decomposer")

// planCorpusFuzz mirrors xq's FuzzParseQuery seeds: every construct of the
// dialect, plus inputs that fail to parse or normalize.
var planCorpusFuzz = []string{
	`(let $t := (let $s := doc("xrpc://peer1/xmk.xml")/child::site/child::people/child::person
	            return for $x in $s return
	                   if ($x/descendant::age < 40) then $x else ())
	 return for $e in (let $c := doc("xrpc://peer2/xmk.auctions.xml")
	                   return $c/descendant::open_auction)
	        return if ($e/child::seller/attribute::person = $t/attribute::id)
	               then $e/child::annotation else ())/child::author`,
	`let $s := doc("xrpc://peer1/xmk.xml")/child::site/child::people/child::person
	 return for $x in $s return
	       if ($x/descendant::age > 45) then $x else ()`,
	`declare function young() as item()* {
	  for $x in doc("xmk.xml")/child::site/child::people/child::person
	  return if ($x/descendant::age < 40) then $x/child::name else ()
	};
	for $p in ("peer1", "peer2") return execute at {$p} { young() }`,
	`for $x in doc("shard://xmark/people")/child::site/child::people/child::person
	 return if ($x/descendant::age < 40) then $x/child::name else ()`,
	`doc("a.xml")//book[price > 28][2]/title/text()`,
	`(doc("a.xml")//book)[last()]/@id`,
	`//l2[@k = "y"]/preceding-sibling::l2/ancestor-or-self::node()`,
	`for $b in //book order by number($b/price) descending, $b/title return $b`,
	`some $a in //author satisfies $a = "Tang"`,
	`every $a in //author satisfies string-length($a) > 2`,
	`typeswitch (//book[1]) case $n as element() return name($n)
	 case $t as text() return "txt" default $d return count($d)`,
	`element report { attribute n {count(//book)}, text {"x"}, //book/title }`,
	`<a b="1" c="{2}"><b/>text</a>`,
	`document { element x { 1 + 2 * 3 idiv 4 mod 5 - -6 } }`,
	`(1, 2.5, "three", true(), $v) union //a intersect //b except //c`,
	`$x is $y or $x << $y and $x >> $y`,
	`if (1 = 2 or 3 != 4 and 5 <= 6) then 7 else 8`,
	`let $f := 1 return (: comment (: nested :) here :) $f`,
	`"unterminated`,
	`'single''quoted'`,
	`execute at {"p"} { f(1, (), ("a", "b")) }`,
	``,
	`$`,
	`/`,
	`//`,
	`..`,
	`.`,
	`()`,
}

// planCorpusEquivalence mirrors peer's TestDecompositionEquivalence queries.
var planCorpusEquivalence = []string{
	`doc("xrpc://A/store.xml")//book/title`,
	`doc("xrpc://A/store.xml")/store/book/@id`,
	`count(doc("xrpc://A/store.xml")//author)`,
	`doc("xrpc://A/store.xml")//book[price > 28]/title/text()`,
	`doc("xrpc://A/store.xml")//book[@cat = "db"][2]/@id`,
	`(doc("xrpc://A/store.xml")//book)[2]/title`,
	`doc("xrpc://A/store.xml")//author/parent::authors/parent::book/@id`,
	`doc("xrpc://A/tree.xml")//l3/ancestor::l1`,
	`doc("xrpc://A/tree.xml")//l2[@k = "y"]/preceding-sibling::l2/@k`,
	`doc("xrpc://A/tree.xml")//l2[@k = "x"]/following::l2/@k`,
	`for $bk in doc("xrpc://A/store.xml")//book
	 order by number($bk/price) descending return $bk/title/text()`,
	`for $bk in doc("xrpc://A/store.xml")//book
	 where some $au in $bk//author satisfies $au = "Tang"
	 return $bk/@id`,
	`typeswitch (doc("xrpc://A/store.xml")//book[1])
	 case $nn as node() return name($nn) default return "none"`,
	`count(doc("xrpc://A/store.xml")//book union doc("xrpc://A/store.xml")//book[price > 28])`,
	`doc("xrpc://A/store.xml")//book[1] << doc("xrpc://A/store.xml")//book[2]`,
	`sum(for $sl in doc("xrpc://B/sales.xml")//sale return number($sl/@qty))`,
	`string-join(doc("xrpc://A/store.xml")//author/text(), ";")`,
	`for $bk in doc("xrpc://A/store.xml")//book
	 where $bk/@id = doc("xrpc://B/sales.xml")//sale/@book
	 return $bk/title/text()`,
	`for $sl in doc("xrpc://B/sales.xml")//sale
	 where $sl/@book = doc("xrpc://A/store.xml")//book[@cat = "db"]/@id
	 return $sl/@qty`,
	`element report { attribute n {count(doc("xrpc://A/store.xml")//book)},
	    doc("xrpc://A/store.xml")//book[price < 28]/title }`,
	`distinct-values(doc("xrpc://B/sales.xml")//sale/@book)`,
	`deep-equal(doc("xrpc://A/store.xml")//book[1]/authors,
	            doc("xrpc://A/store.xml")//book[2]/authors)`,
	`sum(for $bk in doc("xrpc://A/store.xml")//book
	     for $sl in doc("xrpc://B/sales.xml")//sale
	     where $sl/@book = $bk/@id
	     return number($bk/price) * number($sl/@qty))`,
	`name(root(doc("xrpc://A/tree.xml")//l3[1])/root)`,
	`doc("xrpc://A/store.xml")//book[price > 999]/title`,
}

// planCorpusRewrites exercises the rewrites the other corpora barely reach:
// execute-at inlining with hoisted arguments, nested function inlining, code
// motion of several paths of one parameter, and binders of every kind inside
// shipped subtrees.
var planCorpusRewrites = []string{
	qn2Text,
	`(let $s := doc("xrpc://A/students.xml")/child::people/child::person return
	 let $c := doc("xrpc://B/course42.xml") return
	 let $t := for $x in $s return
	           if ($x/child::tutor = $s/child::name) then $x else ()
	 return for $e in $c/child::enroll/child::exam return
	        if ($e/attribute::id = $t/child::id) then $e else ())/child::grade`,
	`declare function g($a as xs:integer) as item()* { doc("xrpc://A/x.xml")//b[@n = $a] };
	 declare function f($n as xs:integer) as item()* { let $m := $n * 2 return g($m + 1) };
	 let $k := 3 return (execute at {"A"} { f($k) }, execute at {"A"} { f(1 + 1) })`,
	`for $x in doc("xrpc://B/b.xml")//k
	 return count(for $y in doc("xrpc://A/a.xml")//item
	              return if ($y/@id = $x/@a and $y/@k = $x/child::b) then $y else ())`,
	`for $x in doc("xrpc://B/b.xml")//k
	 return doc("xrpc://A/a.xml")//item[@id = $x/@a][some $q in ./child::v satisfies $q = $x]`,
	`for $x in doc("xrpc://B/b.xml")//k
	 return (for $y in doc("xrpc://A/a.xml")//item
	         order by string($y/@id) descending
	         return typeswitch ($y/child::v) case $t as text() return $t
	                case $e as element() return (name($e), $x/@a) default $d return $d)`,
	`let $b := doc("xrpc://B/b.xml")//k[1]
	 return element out { attribute n { count(doc("xrpc://A/a.xml")//item[@id = $b/@a]) },
	                      for $i in doc("xrpc://A/a.xml")//item where $i/@k = $b/@b return $i/@id }`,
}

// TestPlanGoldens pins the decomposer's output: every corpus query, planned
// under every strategy with code motion off and on, must print exactly as
// recorded in testdata/plans. The shard corpus is the shard harness's
// generator at seeds 1 and 2, planned against a four-peer people map.
// Regenerate with `go test ./internal/core -run TestPlanGoldens -update-plans`
// only for a change that means to alter plans.
func TestPlanGoldens(t *testing.T) {
	var shardCorpus []string
	for _, seed := range []int64{1, 2} {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 208; i++ {
			shardCorpus = append(shardCorpus, generate(r).src)
		}
	}
	shards := []core.ShardMap{xmark.PeopleShardMap([]string{"peer1", "peer2", "peer3", "peer4"})}
	for _, c := range []struct {
		name    string
		queries []string
		shards  []core.ShardMap
	}{
		{"fuzz", planCorpusFuzz, nil},
		{"equivalence", planCorpusEquivalence, nil},
		{"rewrites", planCorpusRewrites, nil},
		{"shard", shardCorpus, shards},
	} {
		for _, strat := range []core.Strategy{core.DataShipping, core.ByValue, core.ByFragment, core.ByProjection} {
			for _, motion := range []bool{false, true} {
				name := fmt.Sprintf("%s-%s.txt", c.name, strat)
				if motion {
					name = fmt.Sprintf("%s-%s-motion.txt", c.name, strat)
				}
				t.Run(name, func(t *testing.T) {
					var sb strings.Builder
					for i, src := range c.queries {
						fmt.Fprintf(&sb, "=== %d\n%s\n", i, planText(src, strat, motion, c.shards))
					}
					checkGolden(t, filepath.Join("testdata", "plans", name), sb.String())
				})
			}
		}
	}
}

// planText is the printed plan of src, or the error planning it reports.
func planText(src string, strat core.Strategy, motion bool, shards []core.ShardMap) string {
	q, err := xq.ParseQuery(src)
	if err != nil {
		return "parse error: " + err.Error()
	}
	opts := core.DefaultOptions()
	opts.CodeMotion = motion
	opts.Shards = shards
	plan, err := core.Decompose(q, strat, opts)
	if err != nil {
		return "decompose error: " + err.Error()
	}
	return xq.PrintQuery(plan.Query)
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updatePlans {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
