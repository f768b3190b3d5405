package eval

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// holeTemplates are queries with %s slots for literals; holeValues are the
// values each slot takes, one vector per row.
var holeTemplates = []string{
	`count(doc("people.xml")/descendant::person[descendant::age < %s])`,
	`for $p in doc("people.xml")/child::people/child::person where $p/child::age >= %s return $p/child::name`,
	`string-join(doc("people.xml")//name, %s)`,
	`subsequence(doc("people.xml")//person, %s, %s)/child::name`,
	`for $p in doc("people.xml")//person order by $p/child::age descending return ($p/child::age + %s) * %s`,
	`some $a in doc("people.xml")//age satisfies $a = (%s, %s)`,
	`for $i in (1, 2, 3) return if ($i > %s) then %s else -%s`,
	`doc("people.xml")//person[@id = %s]/child::name`,
	`%s div %s`,
	`declare function f($n) { doc("people.xml")//person[child::age > $n + %s] }; f(%s)/@id`,
}

var holeValues = [][]string{
	{"40", `","`, "1", "2", "0"},
	{"45", `"; "`, "2", "3", "10"},
	{"50", `""`, "3", "1", "-1"},
	{"20", `"-"`, "0", "0", "1"},
}

// TestTemplateProgramBindsHoles: one lowering of a template, run with each
// argument vector, answers (or faults) as the tree-walker does on the
// substituted text — eager and pushed, through a function call too — and a
// short vector is refused.
func TestTemplateProgramBindsHoles(t *testing.T) {
	for _, tmpl := range holeTemplates {
		n := strings.Count(tmpl, "%s")
		fill := func(row []string) string {
			vals := make([]any, n)
			for i := range vals {
				vals[i] = row[i%len(row)]
			}
			return fmt.Sprintf(tmpl, vals...)
		}
		first := fill(holeValues[0])
		q, exact, err := xq.ParseTemplate(first, "")
		if err != nil || !exact {
			t.Fatalf("%s: exact %v, err %v", first, exact, err)
		}
		key, _ := xq.AppendShapeKey(nil, first)
		e := NewEngine(peopleDocs)
		if _, err := e.Compile(q); err != nil {
			t.Fatal(err)
		}
		for _, row := range holeValues {
			src := fill(row)
			k, args := xq.AppendShapeKey(nil, src)
			if string(k) != string(key) {
				t.Fatalf("%q and %q differ in shape", first, src)
			}
			want, wantErr := treeWalkString(NewEngine(peopleDocs), src)
			e.Holes = args
			got, err := e.Query(q)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || serialize(got) != serialize(want) {
				t.Errorf("%s: template gives %q, %v; the text gives %q, %v", src, serialize(got), err, serialize(want), wantErr)
			}
		}
	}
	q, _, err := xq.ParseTemplate(`declare function f() { 1 + 2 }; 0`, "")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(nil)
	for _, holes := range [][]xdm.Atomic{{xdm.NewInteger(5), xdm.NewInteger(6), xdm.NewInteger(0)}, nil} {
		want := "3"
		if holes != nil {
			want = "11"
		}
		got, err := e.EvalFunctionDeadline(q, "f", nil, nil, time.Time{}, holes...)
		if err != nil || serialize(got) != want {
			t.Errorf("function with holes %v: %q, %v; want %s", holes, serialize(got), err, want)
		}
		seq, err := e.evalFunctionSeq(q, "f", nil, nil, time.Time{}, holes...)
		if err != nil {
			t.Fatal(err)
		}
		var items xdm.Sequence
		if err := seq(func(it xdm.Item) bool { items = append(items, it); return true }); err != nil || serialize(items) != want {
			t.Errorf("pushed function with holes %v: %q, %v; want %s", holes, serialize(items), err, want)
		}
	}
	if _, err := e.EvalFunctionDeadline(q, "f", nil, nil, time.Time{}, xdm.NewInteger(1)); err == nil ||
		!strings.Contains(err.Error(), "takes 3 arguments") {
		t.Errorf("a short vector: %v, want a refusal", err)
	}
}
