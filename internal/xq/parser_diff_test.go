package xq

import (
	"reflect"
	"strings"
	"testing"
)

// parserCorpus is every query the xq tests parse: the fuzz seeds, the
// printed-form tables and inline inputs of parser_test.go, and the
// malformed cases.
func parserCorpus() []string {
	corpus := append([]string(nil), fuzzSeeds...)
	for _, m := range []map[string]string{literalPrints, pathPrints, precedencePrints} {
		for src := range m {
			corpus = append(corpus, src)
		}
	}
	corpus = append(corpus, parseErrorCases...)
	return append(corpus,
		`for $x in $s where $x/age < 40 return $x`,
		`for $x in $a, $y in $b let $z := $x return ($x, $y, $z)`,
		`for $x in $s order by $x/name descending return $x`,
		`typeswitch ($x) case $n as node() return $n case xs:string return 2 default $d return $d`,
		`element a {attribute id {"1"}, text {"hi"}}`,
		`element {concat("a","b")} {()}`,
		`<a x="1"><b/>hello<c>{$v}</c></a>`,
		`<a><b><c/></b></a>/b`,
		`<a>x &amp; y {{z}}</a>`,
		`declare function overlap($l as node(), $r as node()) as boolean()
		{ not(empty($l//* intersect $r//*)) };
		overlap($a, $b)`,
		`1 = 2 = 3`,
		`1 = 2 and 3 = 4 = 5`,
		`1 + 2 = 3 < 4`,
		`- - + -$x * 2`,
		`for $x in 1 order by $x return let $y := 2 order by $y return $y`,
	)
}

// FuzzParserMatchesReference diffs the precedence-table parser against the
// recursive-descent parser it replaced (parser_ref_test.go): every input
// must give a deeply equal query or an error with the same text, position
// included. Only the nesting bound, new with the table parser, may differ.
func FuzzParserMatchesReference(f *testing.F) {
	for _, src := range parserCorpus() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, err := ParseQuery(src)
		if err != nil && strings.Contains(err.Error(), "deeper than") {
			return // the reference parser has no nesting bound
		}
		want, refErr := refParseQuery(src)
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("input %q: error %v, reference error %v", src, err, refErr)
		case err != nil && err.Error() != refErr.Error():
			t.Fatalf("input %q: error %q, reference error %q", src, err, refErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("input %q: parses to\n%s\nreference parses to\n%s", src, PrintQuery(got), PrintQuery(want))
		}
	})
}

// TestParseAllocs pins the allocations of parsing the fuzz seeds that
// parse: the precedence table is package-level, so the Pratt loop adds no
// per-parse maps or closures, and one-byte symbols slice the source.
func TestParseAllocs(t *testing.T) {
	var corpus []string
	for _, src := range fuzzSeeds {
		if _, err := ParseQuery(src); err == nil {
			corpus = append(corpus, src)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, src := range corpus {
			ParseQuery(src)
		}
	})
	t.Logf("%d seeds: %.0f allocations per pass", len(corpus), allocs)
	if allocs > 459 {
		t.Errorf("parsing the %d seeds allocates %.0f times, want at most 459", len(corpus), allocs)
	}
}
