package xdm

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestAtomicItemString(t *testing.T) {
	cases := []struct {
		a    Atomic
		want string
	}{
		{NewString("hi"), "hi"},
		{NewUntyped("u"), "u"},
		{NewBoolean(true), "true"},
		{NewBoolean(false), "false"},
		{NewInteger(-42), "-42"},
		{NewDouble(3.5), "3.5"},
		{NewDouble(4), "4"},
		{NewDouble(math.NaN()), "NaN"},
		{NewDouble(math.Inf(1)), "INF"},
		{NewDouble(math.Inf(-1)), "-INF"},
	}
	for _, c := range cases {
		if got := c.a.ItemString(); got != c.want {
			t.Errorf("ItemString(%v) = %q, want %q", c.a, got, c.want)
		}
	}
}

func TestAtomicNumber(t *testing.T) {
	if NewString(" 12.5 ").Number() != 12.5 {
		t.Error("string → number should trim and parse")
	}
	if !math.IsNaN(NewString("abc").Number()) {
		t.Error("non-numeric string is NaN")
	}
	if NewBoolean(true).Number() != 1 || NewBoolean(false).Number() != 0 {
		t.Error("boolean numbers")
	}
	if NewInteger(7).Number() != 7 {
		t.Error("integer number")
	}
}

// TestNumberMatchesParseFloat: neither the early rejection nor the decimal
// fast path in Number changes a result — every text reads as
// strconv.ParseFloat of its trimmed form, bit for bit, or NaN where
// ParseFloat fails.
func TestNumberMatchesParseFloat(t *testing.T) {
	for _, s := range []string{"", " ", " 12 ", "-", "+.5", ".", "INF", "-inf", "nan", "NaN",
		"Infinity", "0x1p3", "1e3", "1_000", "person123", "p1", "\t7\n", "e5", "x",
		// The fast path's edges: signed zeros, leading zeros, a bare
		// point on either side, 15 against 16 significant digits, and
		// fractions past the exact powers of ten.
		"-0", "+0", "-0.0", "0", "007", "-00.50", "1.", ".5", "-.5", "+1.", "1..2", "1.2.", "--1",
		"123456789012345", "1234567890123456", "0.123456789012345", "0.1234567890123456",
		"999999999999999", "9999999999999999", "-12345678.9012345", "0.0000000000000000000001",
		"0.00000000000000000000001", "3.14159", "40", "0.1", "0.3", "1e", "1.5e3"} {
		want, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			want = math.NaN()
		}
		for _, a := range []Atomic{NewString(s), NewUntyped(s)} {
			if got := a.Number(); !sameFloat(got, want) {
				t.Errorf("%v(%q).Number() = %v, ParseFloat gives %v", a.T, s, got, want)
			}
		}
	}
}

// sameFloat reports whether two floats are one value bit for bit, any two
// NaNs counting as one.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// FuzzNumberMatchesParseFloat checks Number against strconv.ParseFloat of
// the trimmed text, bit for bit, on any text.
func FuzzNumberMatchesParseFloat(f *testing.F) {
	for _, s := range []string{"-0", "007", "1.", ".5", "123456789012345", "1234567890123456",
		"-3.25", " 42 ", "1e3", "0.00000000000000000000001", "person1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			want = math.NaN()
		}
		if got := NewUntyped(s).Number(); !sameFloat(got, want) {
			t.Fatalf("Number(%q) = %v (%#x), ParseFloat gives %v (%#x)",
				s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// TestNumberOfNonNumericTextAllocatesNothing: an id such as "person123" is
// NaN without the error value ParseFloat would allocate.
func TestNumberOfNonNumericTextAllocatesNothing(t *testing.T) {
	a := NewUntyped("person123")
	if n := testing.AllocsPerRun(100, func() { _ = a.Number() }); n != 0 {
		t.Errorf("Number(%q) allocated %v times per call, want 0", a.S, n)
	}
}

func TestParseAtomType(t *testing.T) {
	for name, want := range map[string]AtomType{
		"xs:string": TString, "xs:boolean": TBoolean, "xs:integer": TInteger,
		"xs:double": TDouble, "xs:untypedAtomic": TUntyped, "integer": TInteger,
	} {
		got, ok := ParseAtomType(name)
		if !ok || got != want {
			t.Errorf("ParseAtomType(%q) = %v,%v", name, got, ok)
		}
	}
	if _, ok := ParseAtomType("xs:qname"); ok {
		t.Error("unknown type should not parse")
	}
}

func TestEffectiveBoolean(t *testing.T) {
	n := mustDoc(t, "<a/>").DocElem()
	cases := []struct {
		s       Sequence
		val, ok bool
	}{
		{Sequence{}, false, true},
		{Sequence{n}, true, true},
		{Sequence{n, n}, true, true},
		{Sequence{NewBoolean(true)}, true, true},
		{Sequence{NewBoolean(false)}, false, true},
		{Sequence{NewString("")}, false, true},
		{Sequence{NewString("x")}, true, true},
		{Sequence{NewInteger(0)}, false, true},
		{Sequence{NewInteger(3)}, true, true},
		{Sequence{NewDouble(math.NaN())}, false, true},
		{Sequence{NewInteger(1), NewInteger(2)}, false, false},
	}
	for i, c := range cases {
		val, ok := c.s.EffectiveBoolean()
		if val != c.val || ok != c.ok {
			t.Errorf("case %d: EBV = %v,%v want %v,%v", i, val, ok, c.val, c.ok)
		}
	}
}

func TestCompareAtomics(t *testing.T) {
	lt := func(a, b Atomic) {
		t.Helper()
		c, ok := CompareAtomics(a, b)
		if !ok || c >= 0 {
			t.Errorf("want %v < %v, got cmp=%d ok=%v", a, b, c, ok)
		}
	}
	eq := func(a, b Atomic) {
		t.Helper()
		c, ok := CompareAtomics(a, b)
		if !ok || c != 0 {
			t.Errorf("want %v = %v, got cmp=%d ok=%v", a, b, c, ok)
		}
	}
	lt(NewInteger(1), NewInteger(2))
	lt(NewDouble(1.5), NewInteger(2))
	lt(NewUntyped("10"), NewInteger(20)) // untyped vs numeric → numeric
	lt(NewString("a"), NewString("b"))
	lt(NewUntyped("abc"), NewUntyped("abd")) // untyped vs untyped → string
	eq(NewInteger(2), NewDouble(2))
	eq(NewBoolean(true), NewBoolean(true))
	lt(NewBoolean(false), NewBoolean(true))
	if _, ok := CompareAtomics(NewBoolean(true), NewInteger(1)); ok {
		t.Error("boolean vs integer must be incomparable")
	}
	if _, ok := CompareAtomics(NewDouble(math.NaN()), NewDouble(1)); ok {
		t.Error("NaN comparisons are never ok")
	}
}

func TestCompareAtomicsAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		c1, ok1 := CompareAtomics(NewInteger(a), NewInteger(b))
		c2, ok2 := CompareAtomics(NewInteger(b), NewInteger(a))
		return ok1 && ok2 && sign(c1) == -sign(c2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestConcatAndSingleton(t *testing.T) {
	s := Singleton(NewInteger(1))
	if len(s) != 1 || s[0].(Atomic).I != 1 {
		t.Errorf("Singleton = %v", s)
	}
}

func TestNodesExtraction(t *testing.T) {
	n := mustDoc(t, "<a/>").DocElem()
	if ns, ok := (Sequence{n, n}).Nodes(); !ok || len(ns) != 2 {
		t.Error("node extraction should succeed")
	}
	if _, ok := (Sequence{n, NewInteger(1)}).Nodes(); ok {
		t.Error("mixed sequence must fail node extraction")
	}
	got := NodeSeq([]*Node{n})
	if len(got) != 1 || got[0] != Item(n) {
		t.Error("NodeSeq round trip")
	}
}

func TestAtomize(t *testing.T) {
	n := mustDoc(t, "<a>7</a>").DocElem()
	out := Sequence{n, NewInteger(3)}.Atomize()
	if len(out) != 2 || out[0].T != TUntyped || out[0].S != "7" || out[1].I != 3 {
		t.Errorf("Atomize = %v", out)
	}
}

func TestSequenceString(t *testing.T) {
	n := mustDoc(t, "<a/>").DocElem()
	got := Sequence{n, NewInteger(5)}.String()
	if got != "(element(a), 5)" {
		t.Errorf("String = %q", got)
	}
}
