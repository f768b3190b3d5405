package eval

import "testing"

// aggDocs mixes numeric, non-numeric and empty element content, so the
// aggregates atomize untyped values next to integers, decimals and strings.
var aggDocs = mapResolver{"m.xml": `<m><v>3</v><v>1.5</v><v>-2</v><v>x</v><w>10</w><w>7</w><e></e></m>`}

// TestAggregateResults pins what fn:sum, fn:avg, fn:min, fn:max and
// fn:string-join return, or which fault they raise, over mixed node,
// integer, decimal, string and untyped input: untyped values compare as
// strings in min/max and as numbers in sum/avg.
func TestAggregateResults(t *testing.T) {
	for _, tc := range []struct{ src, want, fault string }{
		{`sum(())`, "0", ""},
		{`sum((1, 2, 3))`, "6", ""},
		{`sum((1, 2.5))`, "3.5", ""},
		{`sum((2.5, 1))`, "3.5", ""},
		{`sum(doc("m.xml")/m/w)`, "17", ""},
		{`sum((doc("m.xml")/m/w, 4))`, "21", ""},
		{`sum((4, doc("m.xml")/m/w))`, "21", ""},
		{`sum((doc("m.xml")/m/v[1], 1.5))`, "4.5", ""},
		{`sum(doc("m.xml")/m/v)`, "NaN", ""},
		{`sum(doc("m.xml")/m/e)`, "NaN", ""},
		{`sum((1, "a"))`, "NaN", ""},
		{`sum(("b", "a"))`, "NaN", ""},
		{`sum((doc("m.xml")/m/v[4], "a"))`, "NaN", ""},
		{`sum((1, doc("m.xml")/m/v[4]))`, "NaN", ""},
		{`sum((1.5, 2, doc("m.xml")/m/w[2]))`, "10.5", ""},
		{`avg(())`, "", ""},
		{`avg((1, 2, 3))`, "2", ""},
		{`avg((1, 2.5))`, "1.75", ""},
		{`avg((2.5, 1))`, "1.75", ""},
		{`avg(doc("m.xml")/m/w)`, "8.5", ""},
		{`avg((doc("m.xml")/m/w, 4))`, "7", ""},
		{`avg((4, doc("m.xml")/m/w))`, "7", ""},
		{`avg((doc("m.xml")/m/v[1], 1.5))`, "2.25", ""},
		{`avg(doc("m.xml")/m/v)`, "NaN", ""},
		{`avg(doc("m.xml")/m/e)`, "NaN", ""},
		{`avg((1, "a"))`, "NaN", ""},
		{`avg(("b", "a"))`, "NaN", ""},
		{`avg((doc("m.xml")/m/v[4], "a"))`, "NaN", ""},
		{`avg((1, doc("m.xml")/m/v[4]))`, "NaN", ""},
		{`avg((1.5, 2, doc("m.xml")/m/w[2]))`, "3.5", ""},
		{`min(())`, "", ""},
		{`min((1, 2, 3))`, "1", ""},
		{`min((1, 2.5))`, "1", ""},
		{`min((2.5, 1))`, "1", ""},
		{`min(doc("m.xml")/m/w)`, "10", ""},
		{`min((doc("m.xml")/m/w, 4))`, "4", ""},
		{`min((4, doc("m.xml")/m/w))`, "4", ""},
		{`min((doc("m.xml")/m/v[1], 1.5))`, "1.5", ""},
		{`min(doc("m.xml")/m/v)`, "-2", ""},
		{`min(doc("m.xml")/m/e)`, "", ""},
		{`min((1, "a"))`, "", "eval: min()/max() over incomparable values"},
		{`min(("b", "a"))`, "a", ""},
		{`min((doc("m.xml")/m/v[4], "a"))`, "a", ""},
		{`min((1, doc("m.xml")/m/v[4]))`, "", "eval: min()/max() over incomparable values"},
		{`min((1.5, 2, doc("m.xml")/m/w[2]))`, "1.5", ""},
		{`max(())`, "", ""},
		{`max((1, 2, 3))`, "3", ""},
		{`max((1, 2.5))`, "2.5", ""},
		{`max((2.5, 1))`, "2.5", ""},
		{`max(doc("m.xml")/m/w)`, "7", ""},
		{`max((doc("m.xml")/m/w, 4))`, "7", ""},
		{`max((4, doc("m.xml")/m/w))`, "7", ""},
		{`max((doc("m.xml")/m/v[1], 1.5))`, "3", ""},
		{`max(doc("m.xml")/m/v)`, "x", ""},
		{`max(doc("m.xml")/m/e)`, "", ""},
		{`max((1, "a"))`, "", "eval: min()/max() over incomparable values"},
		{`max(("b", "a"))`, "b", ""},
		{`max((doc("m.xml")/m/v[4], "a"))`, "x", ""},
		{`max((1, doc("m.xml")/m/v[4]))`, "", "eval: min()/max() over incomparable values"},
		{`max((1.5, 2, doc("m.xml")/m/w[2]))`, "7", ""},
		{`string-join((), "|")`, "", ""},
		{`string-join((1, 2, 3), "|")`, "1|2|3", ""},
		{`string-join((1, 2.5), "|")`, "1|2.5", ""},
		{`string-join((2.5, 1), "|")`, "2.5|1", ""},
		{`string-join(doc("m.xml")/m/w, "|")`, "10|7", ""},
		{`string-join((doc("m.xml")/m/w, 4), "|")`, "10|7|4", ""},
		{`string-join((4, doc("m.xml")/m/w), "|")`, "4|10|7", ""},
		{`string-join((doc("m.xml")/m/v[1], 1.5), "|")`, "3|1.5", ""},
		{`string-join(doc("m.xml")/m/v, "|")`, "3|1.5|-2|x", ""},
		{`string-join(doc("m.xml")/m/e, "|")`, "", ""},
		{`string-join((1, "a"), "|")`, "1|a", ""},
		{`string-join(("b", "a"), "|")`, "b|a", ""},
		{`string-join((doc("m.xml")/m/v[4], "a"), "|")`, "x|a", ""},
		{`string-join((1, doc("m.xml")/m/v[4]), "|")`, "1|x", ""},
		{`string-join((1.5, 2, doc("m.xml")/m/w[2]), "|")`, "1.5|2|7", ""},
		{`string-join((1, 2), (",", ";"))`, "", "eval: string-join separator must be a single item, got 2"},
		{`string-join((1, 2), ())`, "", "eval: string-join separator must be a single item, got 0"},
	} {
		got, err := queryString(NewEngine(aggDocs), tc.src)
		fault := ""
		if err != nil {
			fault = err.Error()
		}
		if serialize(got) != tc.want || fault != tc.fault {
			t.Errorf("%s = %q, fault %q; want %q, fault %q", tc.src, serialize(got), fault, tc.want, tc.fault)
		}
	}
}
