package eval

import (
	"errors"
	"testing"
	"time"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// emitDocs holds four x elements under one r.
var emitDocs = mapResolver{"d.xml": `<r><x>1</x><x>2</x><x>3</x><x>4</x></r>`}

// emitCall runs declared function f of src through EvalFunctionEmit, handing
// each emitted sequence to emit, and returns the emitted values in order.
func emitCall(t *testing.T, src string, emit func(xdm.Sequence) error) ([]string, error) {
	t.Helper()
	q, err := xq.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	err = NewEngine(emitDocs).EvalFunctionEmit(q, "f", nil, nil, time.Time{}, func(s xdm.Sequence) error {
		got = append(got, serialize(s))
		return emit(s)
	})
	return got, err
}

// TestEmitShapes: each top-level shape that emits does so before its tail
// is evaluated — the tail faults, yet a consumer that stops at the first
// emission never meets the fault — and the error that stops it comes back
// unchanged. Every other shape emits its whole value exactly once, equal to
// the eager call's. The dialect has no positional `at` variable, so that
// shape cannot arise.
func TestEmitShapes(t *testing.T) {
	stop := errors.New("consumer stops")
	for _, tc := range []struct{ name, body, first string }{
		{"comma", `(count(doc("d.xml")/r/x), 1 idiv 0)`, "4"},
		{"comma-of-path", `(doc("d.xml")/r/x, 1 idiv 0)`, "<x>1</x>"},
		{"for", `for $x in (2, 1, 0) return 2 idiv $x`, "1"},
		{"for-over-path", `for $x in doc("d.xml")/r/x return 6 idiv (3 - $x)`, "3"},
		{"path", `doc("d.xml")/r/x[1 idiv (3 - position()) ge 0]`, "<x>1</x>"},
		{"path-descendant", `doc("d.xml")/descendant::x[1 idiv (2 - position()) ge 0]`, "<x>1</x>"},
	} {
		src := `declare function f() { ` + tc.body + ` }; 1`
		got, err := emitCall(t, src, func(xdm.Sequence) error { return stop })
		if err != stop || len(got) != 1 || got[0] != tc.first {
			t.Errorf("%s: emitted %q, error %v; want one emission %q and the consumer's error", tc.name, got, err, tc.first)
		}
		// Run to the end, the tail faults after what was emitted.
		if got, err = emitCall(t, src, func(xdm.Sequence) error { return nil }); err == nil || len(got) == 0 {
			t.Errorf("%s: emitted %q, error %v; want the tail's fault after the emissions", tc.name, got, err)
		}
	}
	for _, tc := range []struct{ name, decl, want string }{
		{"order-by", `declare function f() { for $x in doc("d.xml")/r/x order by $x descending return $x }`,
			"<x>4</x> <x>3</x> <x>2</x> <x>1</x>"},
		{"last", `declare function f() { doc("d.xml")/r/x[position() < last()] }`, "<x>1</x> <x>2</x> <x>3</x>"},
		{"filter-last-step", `declare function f() { (doc("d.xml")/r/x)[position() > 1] }`, "<x>2</x> <x>3</x> <x>4</x>"},
		{"two-predicates", `declare function f() { doc("d.xml")/r/x[position() > 1][. != "3"] }`, "<x>2</x> <x>4</x>"},
		{"let", `declare function f() { let $v := doc("d.xml")/r/x return ($v[2], $v[1]) }`, "<x>2</x> <x>1</x>"},
		{"if", `declare function f() { if (true()) then doc("d.xml")/r/x else () }`, "<x>1</x> <x>2</x> <x>3</x> <x>4</x>"},
		{"typed-return", `declare function f() as element()* { (doc("d.xml")/r/x, doc("d.xml")/r/x) }`,
			"<x>1</x> <x>2</x> <x>3</x> <x>4</x> <x>1</x> <x>2</x> <x>3</x> <x>4</x>"},
		{"typed-for", `declare function f() as xs:integer+ { for $x in (1, 2, 3) return $x * 2 }`, "2 4 6"},
	} {
		src := tc.decl + `; 1`
		got, err := emitCall(t, src, func(xdm.Sequence) error { return nil })
		if err != nil || len(got) != 1 || got[0] != tc.want {
			t.Errorf("%s: emitted %q, error %v; want %q once", tc.name, got, err, tc.want)
		}
		q, _ := xq.ParseQuery(src)
		if eager, err := NewEngine(emitDocs).EvalFunction(q, "f", nil); err != nil || serialize(eager) != tc.want {
			t.Errorf("%s: eager call %q, %v", tc.name, serialize(eager), err)
		}
		if got, err = emitCall(t, src, func(xdm.Sequence) error { return stop }); err != stop || len(got) != 1 {
			t.Errorf("%s: emitted %q, error %v; want one emission and the consumer's error", tc.name, got, err)
		}
	}
}
