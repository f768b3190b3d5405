package eval

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// TestHoistingPreservesSemantics: a join with a memoized invariant operand
// gives the same answer over a long and a short loop.
func TestHoistingPreservesSemantics(t *testing.T) {
	docs := mapResolver{
		"ids.xml": `<ids><i>3</i><i>5</i><i>7</i></ids>`,
	}
	big := `for $x in (1,2,3,4,5,6,7,8,9,10)
	        return if ($x = doc("ids.xml")//i) then $x else ()`
	small := `for $x in (3,5,7,11)
	          return if ($x = doc("ids.xml")//i) then $x else ()`
	expect(t, docs, big, "3 5 7")
	expect(t, docs, small, "3 5 7")
}

func TestHoistingSkipsConstructors(t *testing.T) {
	// A constructor inside a comparison creates a fresh node per iteration;
	// hoisting it would change node identity semantics. The observable
	// behaviour here: the comparison stays per-iteration and still works.
	expect(t, nil, `count(for $x in (1,2,3,4,5,6) return
	       if ($x = count(<a><b/></a>/b)) then $x else ())`, "1")
}

func TestHoistingSkipsLoopDependentOperands(t *testing.T) {
	expect(t, nil,
		`for $x in (1,2,3,4,5,6) return if ($x * 2 = $x + $x) then "eq" else "ne"`,
		"eq eq eq eq eq eq")
}

func TestHoistingInnerBinderShadowing(t *testing.T) {
	// The right operand references an inner for variable: must not hoist.
	expect(t, nil,
		`for $x in (1,2,3,4,5,6)
		 return count(for $y in (1,2) return if ($x = $y + 0) then $x else ())`,
		"1 1 0 0 0 0")
}

// TestHoistedOperandRebindsPerOuterIteration: an inner loop's hoisted
// operand that depends on the outer variable is evaluated — and atomized —
// anew for every outer iteration; a memo surviving the rebind would repeat
// the first iteration's matches.
func TestHoistedOperandRebindsPerOuterIteration(t *testing.T) {
	expect(t, nil,
		`for $o in (1,2,3,4,5,6) return for $x in (1,2,3,4,5,6)
		 return if ($x = subsequence((1,2,3,4,5,6,7), $o, 2)) then $x else ()`,
		"1 2 2 3 3 4 4 5 5 6 6")
}

// TestHoistedOperandAtomizedOnce: the semijoin shape — a few hundred hoisted
// nodes compared once per iteration — allocates the atomized operand once
// per loop, not once per iteration (400 nodes × 48 B × 60 iterations would
// be over 1 MB), under both executors.
func TestHoistedOperandAtomizedOnce(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<ids>")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, `<i n="%d"/>`, i)
	}
	sb.WriteString("</ids>")
	var loop strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&loop, "%d,", 1000+i)
	}
	src := `count(for $x in (` + loop.String() + `399) return if ($x = doc("ids.xml")//i/@n) then $x else ())`
	for _, compile := range []bool{false, true} {
		eng := NewEngine(mapResolver{"ids.xml": sb.String()})
		eng.Options.Compile = compile
		query := eng.Query
		if !compile {
			query = func(q *xq.Query) (xdm.Sequence, error) { return treeWalk(eng, q) }
		}
		q, err := xq.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := query(q)
			if err != nil || len(res) != 1 || res[0].ItemString() != "1" {
				t.Fatalf("compile=%v: %v, %v", compile, res, err)
			}
		}
		run() // parse the document, normalize, compile
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if kb := (after.TotalAlloc - before.TotalAlloc) / 1024; kb > 300 {
			t.Errorf("compile=%v: one run allocated %d KB; the hoisted operand is atomized per iteration", compile, kb)
		}
	}
}

// expectEveryForm requires the expression src to evaluate to want on the
// tree-walker, on the compiled executor eagerly (Query) and lazily
// (QuerySeq), and as the body of a declared function through the emitting
// entry point EvalFunctionEmit.
func expectEveryForm(t *testing.T, docs mapResolver, src, want string) {
	t.Helper()
	expectBoth(t, docs, src, want)
	q, err := xq.ParseQuery(`declare function f() as item()* { ` + src + ` }; 1`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewEngine(docs).evalFunctionSeq(q, "f", nil, nil, time.Time{})
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	got, err := drain(s)
	if err != nil || serialize(got) != want {
		t.Errorf("EvalFunctionEmit %s\n got:  %q, %v\n want: %s", src, serialize(got), err, want)
	}
}

// TestInvariantOperandInUntakenBranch: an invariant operand that faults
// sits in a branch no iteration takes. It is evaluated only when reached,
// so the loop returns its input whatever its length, in every executor.
func TestInvariantOperandInUntakenBranch(t *testing.T) {
	for _, in := range []string{"1, 2, 3, 4", "1, 2, 3, 4, 5"} {
		for _, operand := range []string{`exactly-one(())`, `doc("missing.xml")/a`} {
			src := `for $i in (` + in + `) return if ($i > 9) then $i = ` + operand + ` else $i`
			expectEveryForm(t, nil, src, strings.ReplaceAll(in, ",", ""))
		}
	}
}

// TestFocusBuiltinsAreNotInvariant: root() without an argument and id()
// read the focus — here a predicate candidate — so an operand calling them
// is evaluated per candidate, never memoized for the loop, at every loop
// length.
func TestFocusBuiltinsAreNotInvariant(t *testing.T) {
	docs := mapResolver{"d.xml": `<r><a id="x" v="1"/><a v="2"/><a v="1"/></r>`}
	for _, tc := range []struct{ body, each string }{
		{`count(doc("d.xml")//a[@v = root()//a[1]/@v])`, "2"},
		{`count(doc("d.xml")//a[@v = id("x")/@v])`, "2"},
		{`count(doc("d.xml")//a[@v = id("x", ())/@v])`, "2"},
	} {
		for _, n := range []int{4, 5} {
			in := strings.TrimSuffix(strings.Repeat("1, ", n), ", ")
			src := `for $i in (` + in + `) return ` + tc.body
			expectEveryForm(t, docs, src, strings.TrimSuffix(strings.Repeat(tc.each+" ", n), " "))
		}
	}
}

func TestHoistingErrorsSurface(t *testing.T) {
	// The hoisted operand errors: evaluation must fail, not silently skip.
	runErr(t, nil, `for $x in (1,2,3,4,5,6) return if ($x = doc("missing.xml")//i) then 1 else 0`)
}

// eqPool covers every atom type and the corners of the `=` pair rule: NaN,
// -0, infinities, numeric-looking strings and untypeds, whitespace-padded
// untypeds, texts ParseFloat reads as NaN or INF, and booleans.
var eqPool = []xdm.Atomic{
	xdm.NewInteger(0), xdm.NewInteger(5), xdm.NewInteger(-3), xdm.NewDouble(5),
	xdm.NewDouble(math.Copysign(0, -1)), xdm.NewDouble(math.NaN()), xdm.NewDouble(math.Inf(1)),
	xdm.NewDouble(0.5), xdm.NewString("5"), xdm.NewString(" 5"), xdm.NewString("a"),
	xdm.NewString(""), xdm.NewString("NaN"), xdm.NewUntyped("5"), xdm.NewUntyped(" 5 "),
	xdm.NewUntyped("5.0"), xdm.NewUntyped("a"), xdm.NewUntyped("NaN"), xdm.NewUntyped("-0"),
	xdm.NewUntyped("INF"), xdm.NewUntyped(""), xdm.NewUntyped(".5"), xdm.NewBoolean(true),
	xdm.NewBoolean(false),
}

// TestHashedEqMatchesNaive checks the `=` index against the pair rule's scan:
// every pair of eqPool atoms both ways, then random 1 × n, n × 1 and n × n
// mixes through generalCompareAtoms with no operand hoisted and with either.
func TestHashedEqMatchesNaive(t *testing.T) {
	naive := func(la, ra []xdm.Atomic) bool {
		for _, a := range la {
			for _, b := range ra {
				if cmp, ok := generalPair(a, b); ok && cmp == 0 {
					return true
				}
			}
		}
		return false
	}
	indexed := func(la, ra []xdm.Atomic) bool { return new(eqIndex).over(ra).matchesAny(la) }
	for _, a := range eqPool {
		for _, b := range eqPool {
			l, r := []xdm.Atomic{a}, []xdm.Atomic{b}
			if got, want := indexed(l, r), naive(l, r); got != want {
				t.Errorf("%v %q = %v %q: index says %v, pair rule %v", a.T, a.ItemString(), b.T, b.ItemString(), got, want)
			}
		}
	}
	mk := func(picks []uint8) []xdm.Atomic {
		out := make([]xdm.Atomic, 0, len(picks))
		for _, p := range picks {
			out = append(out, eqPool[int(p)%len(eqPool)])
		}
		return out
	}
	f := func(lp, rp []uint8, shape uint8) bool {
		la, ra := mk(lp), mk(rp)
		switch shape % 3 {
		case 0: // 1 × n
			la = la[:min(len(la), 1)]
		case 1: // n × 1
			ra = ra[:min(len(ra), 1)]
		}
		want := naive(la, ra)
		return generalCompareAtoms(xq.OpEq, la, ra, nil, nil) == want && indexed(la, ra) == want &&
			generalCompareAtoms(xq.OpEq, la, ra, &atomMemo{atoms: la}, nil) == want &&
			generalCompareAtoms(xq.OpEq, la, ra, nil, &atomMemo{atoms: ra}) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestGeneralEqLargeSequencesUseHashPath(t *testing.T) {
	// Exercise the hashed path explicitly (both sides above threshold) and
	// check the known answers.
	expect(t, nil, `(1,2,3,4,5,6) = (7,8,9,10,11,6)`, "true")
	expect(t, nil, `(1,2,3,4,5,6) = (7,8,9,10,11,12)`, "false")
	expect(t, nil, `("a","b","c","d","e") = ("x","y","z","w","c")`, "true")
	// Mixed: untyped numeric text matches integers.
	docs := mapResolver{"n.xml": `<n><v>5</v><v>6</v><v>7</v><v>8</v><v>9</v></n>`}
	expect(t, docs, `doc("n.xml")//v = (9,20,30,40,50)`, "true")
	expect(t, docs, `doc("n.xml")//v = (19,20,30,40,50)`, "false")
	// String "5" vs integer 5 is incomparable → false, hashed or scanned.
	expect(t, nil, `("5","x","y","z","w") = (5,6,7,8,9)`, "false")
	expect(t, nil, `("5") = (5,6,7,8,9)`, "false")
	// NaN equals nothing, itself included, hashed or scanned.
	expect(t, nil, `(number("x"),1,2,3,4) = (number("y"),10,20,30,40)`, "false")
	expect(t, nil, `(number("x")) = (number("y"))`, "false")
}

// TestJoinIndexBuiltOncePerLoop: the semijoin shape's hoisted `=` operand is
// indexed once per loop evaluation, so a run's allocations grow with the
// number of iterations no faster when the index is probed (50 hoisted ids)
// than when the pairs are scanned (3 hoisted ids), under both executors.
func TestJoinIndexBuiltOncePerLoop(t *testing.T) {
	ids := func(n int) string {
		var sb strings.Builder
		sb.WriteString("<ids>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, `<i n="person%d"/>`, i*7)
		}
		return sb.String() + "</ids>"
	}
	probes := func(n int) string {
		var sb strings.Builder
		sb.WriteString("<p>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, `<q k="person%d"/>`, i)
		}
		return sb.String() + "</p>"
	}
	src := `count(for $x in doc("p.xml")//q return if ($x/@k = doc("ids.xml")//i/@n) then $x else ())`
	allocs := func(compile bool, nIDs, nProbes int) float64 {
		eng := NewEngine(mapResolver{"ids.xml": ids(nIDs), "p.xml": probes(nProbes)})
		eng.Options.Compile = compile
		query := eng.Query
		if !compile {
			query = func(q *xq.Query) (xdm.Sequence, error) { return treeWalk(eng, q) }
		}
		q, err := xq.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint((min(nIDs*7, nProbes) + 6) / 7)
		run := func() {
			if res, err := query(q); err != nil || len(res) != 1 || res[0].ItemString() != want {
				t.Fatalf("compile=%v ids=%d probes=%d: %v, %v; want %s", compile, nIDs, nProbes, res, err, want)
			}
		}
		run() // parse the documents, normalize, compile
		return testing.AllocsPerRun(5, run)
	}
	for _, compile := range []bool{false, true} {
		slope := func(nIDs int) float64 { return (allocs(compile, nIDs, 500) - allocs(compile, nIDs, 50)) / 450 }
		indexed, scanned := slope(50), slope(3)
		t.Logf("compile=%v: %.2f allocs per iteration indexed, %.2f scanned", compile, indexed, scanned)
		if indexed-scanned > 0.5 {
			t.Errorf("compile=%v: %.2f allocs per iteration probing the index, %.2f scanning pairs; the index is rebuilt per iteration",
				compile, indexed, scanned)
		}
	}
}
