package eval

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// TestHoistingPreservesSemantics compares a join evaluated with the
// invariant-hoisting path (many iterations) against the plain path (few
// iterations) on equivalent data.
func TestHoistingPreservesSemantics(t *testing.T) {
	docs := mapResolver{
		"ids.xml": `<ids><i>3</i><i>5</i><i>7</i></ids>`,
	}
	// 10 iterations > hoist threshold; 3 iterations below it.
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
		q, err := xq.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := eng.Query(q)
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

func TestHoistingErrorsSurface(t *testing.T) {
	// The hoisted operand errors: evaluation must fail, not silently skip.
	runErr(t, nil, `for $x in (1,2,3,4,5,6) return if ($x = doc("missing.xml")//i) then 1 else 0`)
}

// TestHashedEqMatchesNaive checks the hash-based existential equality against
// the naive pairwise scan on random atom mixes.
func TestHashedEqMatchesNaive(t *testing.T) {
	mk := func(picks []uint8) []xdm.Atomic {
		out := make([]xdm.Atomic, 0, len(picks))
		for _, p := range picks {
			switch p % 5 {
			case 0:
				out = append(out, xdm.NewInteger(int64(p%7)))
			case 1:
				out = append(out, xdm.NewDouble(float64(p%7)))
			case 2:
				out = append(out, xdm.NewString(string(rune('a'+p%4))))
			case 3:
				out = append(out, xdm.NewUntyped(string(rune('0'+p%7))))
			case 4:
				out = append(out, xdm.NewBoolean(p%2 == 0))
			}
		}
		return out
	}
	naive := func(la, ra []xdm.Atomic) bool {
		for _, a := range la {
			for _, b := range ra {
				if cmp, ok := xdm.CompareAtomics(a, b); ok && cmp == 0 {
					return true
				}
			}
		}
		return false
	}
	f := func(lp, rp []uint8) bool {
		la, ra := mk(lp), mk(rp)
		return hashedExistsEq(la, ra) == naive(la, ra)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
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
	// String "5" vs integer 5 is incomparable → false even hashed.
	expect(t, nil, `("5","x","y","z","w") = (5,6,7,8,9)`, "false")
}
