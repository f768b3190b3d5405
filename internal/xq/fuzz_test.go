package xq

import (
	"reflect"
	"strings"
	"testing"
)

// fuzzSeeds is the XMark/scatter corpus plus grammar-corner seeds: every
// construct of the dialect appears at least once so mutation reaches deep
// parser states quickly.
var fuzzSeeds = []string{
	// XMark benchmark queries (§VII shapes).
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
	// Scatter corpus: hand-written variable-target loop and logical form.
	`declare function young() as item()* {
	  for $x in doc("xmk.xml")/child::site/child::people/child::person
	  return if ($x/descendant::age < 40) then $x/child::name else ()
	};
	for $p in ("peer1", "peer2") return execute at {$p} { young() }`,
	`for $x in doc("shard://xmark/people")/child::site/child::people/child::person
	 return if ($x/descendant::age < 40) then $x/child::name else ()`,
	// Grammar corners: axes, predicates, filters, constructors, typeswitch,
	// quantifiers, set ops, comparisons, arithmetic, order by.
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

// FuzzParseQuery asserts the parser is total: any byte string either parses
// or returns an error — it must never panic. Inputs that parse must also
// print and reparse (the printed form is what XRPC ships in messages), and
// every body's deep copy must print the same and have the same free
// variables — CloneExpr and FreeVars both derive from Slots.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQuery(src)
		if err != nil {
			return
		}
		bodies := []Expr{q.Body}
		for _, fd := range q.Funcs {
			bodies = append(bodies, fd.Body)
		}
		for _, b := range bodies {
			c := CloneExpr(b)
			if Print(c) != Print(b) {
				t.Fatalf("clone prints %q, original %q", Print(c), Print(b))
			}
			if fc, fb := FreeVars(c), FreeVars(b); !reflect.DeepEqual(fc, fb) {
				t.Fatalf("clone's free variables %v, original's %v\ninput: %q", fc, fb, src)
			}
		}
		// Round-trip: the canonical printed form must parse again. (Printed
		// output is not guaranteed byte-identical to the input, but it must
		// be valid — decomposed bodies ship as printed text.)
		printed := PrintQuery(q)
		if _, err := ParseQuery(printed); err != nil {
			// Skip inputs whose literals the printer cannot round-trip
			// losslessly (e.g. control characters inside strings) — but a
			// plain-ASCII query must always round-trip.
			if isPrintableASCII(src) {
				t.Fatalf("printed form does not reparse: %v\ninput: %q\nprinted: %q", err, src, printed)
			}
		}
	})
}

func isPrintableASCII(s string) bool {
	for _, r := range s {
		if r < 0x20 && !strings.ContainsRune("\t\n\r", r) || r > 0x7e {
			return false
		}
	}
	return true
}
