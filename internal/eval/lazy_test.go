package eval

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// evalEager runs a query through the eager tree-walker on its own parse —
// the oracle the streamed form is checked against.
func evalEager(e *Engine, src string) (xdm.Sequence, error) {
	q, err := xq.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return treeWalk(e, q)
}

// evalLazy pulls the same query through QuerySeq item by item: the
// streamed form, lowered on the spot. Each side parses its own copy.
func evalLazy(e *Engine, src string) (xdm.Sequence, error) {
	q, err := xq.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	s, err := e.QuerySeq(q)
	if err != nil {
		return nil, err
	}
	return drain(s)
}

// lazyEquivQueries covers both the streaming cases (downward final steps,
// filters, FLWOR bodies, sequence construction) and the materializing
// fallbacks (last(), reverse axes, order by, //-desugared overlapping
// contexts, node-set operators, aggregates).
var lazyEquivQueries = []string{
	`doc("people.xml")/people/person`,
	`doc("people.xml")/people/person/name`,
	`doc("people.xml")/people/person/@id`,
	`doc("people.xml")/people/person[age > 40]/name`,
	`doc("people.xml")/people/person[2]`,
	`doc("people.xml")/people/person[position() > 1]/name`,
	`doc("people.xml")/people/person[last()]`,
	`doc("people.xml")//name`,
	`doc("people.xml")/descendant::name`,
	`doc("people.xml")/people/person/descendant-or-self::node()`,
	`doc("people.xml")/people/person/name/parent::person`,
	`doc("people.xml")/people/person[1]/following-sibling::person`,
	`for $p in doc("people.xml")/people/person return $p/name`,
	`for $p in doc("people.xml")/people/person return ($p/@id, $p/age)`,
	`for $p in doc("people.xml")/people/person order by $p/name descending return $p/name`,
	`for $p in doc("people.xml")/people/person where $p/age < 48 return $p/name`,
	`let $ps := doc("people.xml")/people/person return ($ps[1], $ps[3])`,
	`if (count(doc("people.xml")/people/person) > 2) then "many" else "few"`,
	`(1, 2, doc("people.xml")/people/person/age, "end")`,
	`(doc("people.xml")/people/person/name | doc("people.xml")/people/person/age)`,
	`count(doc("people.xml")/people/person)`,
	`doc("people.xml")/people/person/name/text()`,
	`(doc("people.xml")/people/person)[position() mod 2 = 1]/name`,
	`for $p in doc("people.xml")/people/person
	   for $q in doc("people.xml")/people/person
	   return ($p/@id, $q/@id)`,
	`doc("people.xml")/people/person[name = "Bob"]/age`,
	`some $p in doc("people.xml")/people/person satisfies $p/age > 48`,
	`typeswitch (doc("people.xml")/people/person) case $n as node()+ return $n[1]/name default return "none"`,
}

// TestLazyEagerEquivalence checks the streamed form (QuerySeq) against
// the eager tree-walker oracle (evalEager), each on its own parse.
func TestLazyEagerEquivalence(t *testing.T) {
	for _, src := range lazyEquivQueries {
		eagerEng := NewEngine(peopleDocs)
		want, wantErr := evalEager(eagerEng, src)
		lazyEng := NewEngine(peopleDocs)
		got, gotErr := evalLazy(lazyEng, src)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("query %s: eager err %v, lazy err %v", src, wantErr, gotErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if serialize(want) != serialize(got) {
			t.Errorf("query %s\n eager: %s\n lazy:  %s", src, serialize(want), serialize(got))
		}
	}
}

// TestLazyEagerEquivalenceRandomized fuzzes the streamed-vs-oracle
// equivalence over generated documents: random trees, random downward paths
// with positional and value predicates, loops and sequence construction.
// Identical serialization is required — laziness must change when items are
// produced, never which.
func TestLazyEagerEquivalenceRandomized(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		var gen func(depth int)
		gen = func(depth int) {
			name := names[rng.Intn(len(names))]
			fmt.Fprintf(&sb, `<%s id="%d">`, name, rng.Intn(20))
			if depth < 4 {
				for i, kids := 0, rng.Intn(4); i < kids; i++ {
					gen(depth + 1)
				}
			}
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&sb, "t%d", rng.Intn(10))
			}
			fmt.Fprintf(&sb, `</%s>`, name)
		}
		sb.WriteString("<root>")
		for i := 0; i < 6; i++ {
			gen(0)
		}
		sb.WriteString("</root>")
		docs := mapResolver{"r.xml": sb.String()}

		steps := []string{
			"a", "b", "c", "*", "descendant::a", "descendant-or-self::b",
			"a[@id > 9]", "b[2]", "c[position() >= 1]", "*[last()]",
			"@id", "text()", "node()", "descendant::*[@id < 5]",
		}
		for qi := 0; qi < 40; qi++ {
			path := `doc("r.xml")/root`
			for s, n := 0, 1+rng.Intn(3); s < n; s++ {
				path += "/" + steps[rng.Intn(len(steps))]
			}
			src := path
			switch rng.Intn(4) {
			case 0:
				src = fmt.Sprintf(`for $x in %s return ($x, "|")`, path)
			case 1:
				src = fmt.Sprintf(`(%s, count(%s))`, path, path)
			case 2:
				src = fmt.Sprintf(`let $v := %s return $v[position() mod 2 = 1]`, path)
			}
			want, wantErr := evalEager(NewEngine(docs), src)
			got, gotErr := evalLazy(NewEngine(docs), src)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seed %d query %s: eager err %v, lazy err %v", seed, src, wantErr, gotErr)
			}
			if wantErr == nil && serialize(want) != serialize(got) {
				t.Fatalf("seed %d query %s\n eager: %s\n lazy:  %s", seed, src, serialize(want), serialize(got))
			}
		}
	}
}

// TestQuerySeqIsLazy proves the streamed form produces items before
// evaluation completes: the second half of the sequence would divide by
// zero, but pulling only the first item never evaluates it.
func TestQuerySeqIsLazy(t *testing.T) {
	e := NewEngine(peopleDocs)
	q, err := xq.ParseQuery(`(doc("people.xml")/people/person/name, 1 div 0)`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.QuerySeq(q)
	if err != nil {
		t.Fatal(err)
	}
	var first xdm.Item
	if err := s(func(it xdm.Item) bool {
		first = it
		return false // stop after one item
	}); err != nil {
		t.Fatalf("pulling one item should not reach the failing tail: %v", err)
	}
	if first == nil || first.ItemString() != "Ann" {
		t.Fatalf("first item = %v, want Ann", first)
	}
	// Draining the same query does hit the error.
	if _, err := evalLazy(NewEngine(peopleDocs), `(doc("people.xml")/people/person/name, 1 div 0)`); err == nil {
		t.Fatal("materializing should surface the division error")
	}
}

// TestQuerySeqForLoopStreams verifies FLWOR laziness: the loop body of a
// later iteration is not evaluated when the consumer stops early (the body
// would error on the iteration bound to "boom").
func TestQuerySeqForLoopStreams(t *testing.T) {
	docs := mapResolver{"d.xml": `<r><x>1</x><x>2</x><x>0</x></r>`}
	e := NewEngine(docs)
	q, err := xq.ParseQuery(`for $x in doc("d.xml")/r/x return 10 idiv $x`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.QuerySeq(q)
	if err != nil {
		t.Fatal(err)
	}
	var got xdm.Sequence
	if err := s(func(it xdm.Item) bool {
		got = append(got, it)
		return len(got) < 2
	}); err != nil {
		t.Fatalf("first two iterations should stream cleanly: %v", err)
	}
	if serialize(got) != "10 5" {
		t.Fatalf("got %q, want \"10 5\"", serialize(got))
	}
	if _, err := e.Query(q); err == nil {
		t.Fatal("draining all iterations should fail on the third")
	}
}

// TestLazyDeadlineAbortsMidStream: the deadline cuts a streamed walk after a
// prefix — ErrDeadlineExceeded surfaces at the pull site and the abort is
// counted in Stats. An eager Query of a fresh parse, on a lowering of its
// own, and the tree-walking oracle must cut the same walk: their axis scans
// check the deadline per visited node too.
func TestLazyDeadlineAbortsMidStream(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 200000; i++ {
		fmt.Fprintf(&sb, "<x>%d</x>", i)
	}
	sb.WriteString("</r>")
	e := NewEngine(mapResolver{"big.xml": sb.String()})
	q, err := xq.ParseQuery(`doc("big.xml")/r/x`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.QuerySeq(q)
	if err != nil {
		t.Fatal(err)
	}
	// Arm the deadline after parsing: it must trip during the streamed walk.
	e.Deadline = time.Now()
	s, err = e.QuerySeq(q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	err = s(func(xdm.Item) bool {
		n++
		return true
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded after %d items, got %v", n, err)
	}
	aborts := e.StatsSnapshot().DeadlineAborts
	if aborts == 0 {
		t.Fatal("deadline abort not counted in Stats")
	}

	// A fresh parse carries no Program, so Query lowers it for this call.
	cold, err := xq.ParseQuery(`doc("big.xml")/r/x`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(cold); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("cold Query: want ErrDeadlineExceeded, got %v", err)
	}
	if cold.CompiledArtifact() != nil {
		t.Fatal("cold Query attached a Program")
	}
	if e.StatsSnapshot().DeadlineAborts == aborts {
		t.Fatal("cold Query's deadline abort not counted in Stats")
	}
	aborts = e.StatsSnapshot().DeadlineAborts
	oracle, err := xq.ParseQuery(`doc("big.xml")/r/x`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := treeWalk(e, oracle); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("tree-walk: want ErrDeadlineExceeded, got %v", err)
	}
	if e.StatsSnapshot().DeadlineAborts == aborts {
		t.Fatal("the tree-walk's deadline abort not counted in Stats")
	}
}

// TestQuerySeqConcurrentFirstUse: goroutines racing to lower and attach
// (Options.Compile) one fresh query each get a working Program — a
// duplicate lowering is harmless — and all stream the same bytes.
func TestQuerySeqConcurrentFirstUse(t *testing.T) {
	src := `for $p in doc("people.xml")/people/person return ($p/@id, $p/name)`
	want, err := evalEager(NewEngine(peopleDocs), src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := xq.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	// Normalize rewrites a raw parse in place; shared queries are normalized
	// before they are shared.
	if err := xq.Normalize(q); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(peopleDocs)
	e.Options.Compile = true
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := e.QuerySeq(q)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := drain(s)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = serialize(res)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != serialize(want) {
			t.Errorf("goroutine %d: %q, want %q", i, g, serialize(want))
		}
	}
	if _, ok := q.CompiledArtifact().(*Program); !ok {
		t.Fatal("the query carries no Program after concurrent first use")
	}
}

// TestEvalFunctionSeqDeadlineStreams: the server entry point streams a
// declared function's result — early stop leaves the failing tail unreached.
func TestEvalFunctionSeqDeadlineStreams(t *testing.T) {
	src := `declare function local:f($d as item()*) { (doc("people.xml")/people/person/name, 1 div 0) }; 1`
	q, err := xq.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(peopleDocs)
	s, err := e.evalFunctionSeq(q, "local:f", []xdm.Sequence{{xdm.NewInteger(1)}}, nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	var got xdm.Sequence
	if err := s(func(it xdm.Item) bool {
		got = append(got, it)
		return len(got) < 3
	}); err != nil {
		t.Fatalf("streaming the three names should not reach the failing tail: %v", err)
	}
	if serialize(got) != "<name>Ann</name> <name>Bob</name> <name>Cyd</name>" {
		t.Fatalf("got %s", serialize(got))
	}
	// Draining past the names hits the error, after the valid prefix.
	s, err = e.evalFunctionSeq(q, "local:f", []xdm.Sequence{{xdm.NewInteger(1)}}, nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	got = nil
	err = s(func(it xdm.Item) bool {
		got = append(got, it)
		return true
	})
	if err == nil {
		t.Fatal("draining should surface the division error")
	}
	if len(got) != 3 {
		t.Fatalf("error should follow the 3-item prefix, got %d items", len(got))
	}
}

// TestCallDeclaredSeqTypeChecks: a streamed declared function's constrained
// return type still enforces, both the occurrence fallback and the per-item
// streaming check — and a body that faults after its mismatching item
// reports its own fault, as the eager call does.
func TestCallDeclaredSeqTypeChecks(t *testing.T) {
	src := `declare function local:one($d as item()*) as element() { doc("people.xml")/people/person };
	        declare function local:nodes($d as item()*) as element()* { (doc("people.xml")/people/person, "oops") };
	        declare function local:late($d as item()*) as element()* { (doc("people.xml")/people/person, "oops", 1 idiv 0) }; 1`
	q, err := xq.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(peopleDocs)
	s, err := e.evalFunctionSeq(q, "local:one", []xdm.Sequence{{xdm.NewInteger(1)}}, nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(s); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Fatalf("occurrence violation not caught: %v", err)
	}
	s, err = e.evalFunctionSeq(q, "local:nodes", []xdm.Sequence{{xdm.NewInteger(1)}}, nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(s); err == nil || !strings.Contains(err.Error(), "does not match type") {
		t.Fatalf("item type violation not caught: %v", err)
	}
	oracle, err := xq.ParseQuery(src) // its own parse: the tree-walker's call
	if err != nil {
		t.Fatal(err)
	}
	_, want := treeWalkFunction(NewEngine(peopleDocs), oracle, "local:late", []xdm.Sequence{{xdm.NewInteger(1)}}, nil, time.Time{})
	s, err = e.evalFunctionSeq(q, "local:late", []xdm.Sequence{{xdm.NewInteger(1)}}, nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(s); want == nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("streamed fault %v, eager fault %v", err, want)
	}
}
