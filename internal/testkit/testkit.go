// Package testkit holds the helpers the packages' tests share: parse-or-
// panic constructors, a query-from-source shortcut, a printer for bare
// expressions, a per-node numbering oracle and a metrics-page reader. Only
// _test.go files import it, and the reachability gate (reach_test.go at the
// module root) fails if a shipped binary links any of it.
//
// The tests of xdm, xq and eval cannot import testkit, which imports them;
// they keep short unexported copies of the helpers they need.
package testkit

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// Query parses, normalizes and evaluates query source text on e.
func Query(e *eval.Engine, src string) (xdm.Sequence, error) {
	q, err := xq.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return e.Query(q)
}

// MustParseString parses an XML document or panics.
func MustParseString(s, uri string) *xdm.Document {
	d, err := xdm.ParseString(s, uri)
	if err != nil {
		panic(err)
	}
	return d
}

// MustParseQuery parses a query or panics.
func MustParseQuery(src string) *xq.Query {
	q, err := xq.ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseExpr parses a standalone expression: a query without a prolog.
func ParseExpr(src string) (xq.Expr, error) {
	q, err := xq.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	if len(q.Funcs) != 0 {
		return nil, fmt.Errorf("testkit: unexpected function declarations in expression")
	}
	return q.Body, nil
}

// Print renders an expression as the XQuery-Core text xq.PrintQuery gives
// a query with that body and no prolog.
func Print(e xq.Expr) string { return xq.PrintQuery(&xq.Query{Body: e}) }

// NthDescendantOrSelf returns the idx-th (1-based) node of
// descendant-or-self::node() of n in document order, attributes excluded,
// or nil: the per-node walk the XRPC codec's numbering tables replace.
func NthDescendantOrSelf(n *xdm.Node, idx int) *xdm.Node {
	if idx <= 0 {
		return nil
	}
	i := 0
	var res *xdm.Node
	n.WalkDescendants(func(m *xdm.Node) bool {
		i++
		if i == idx {
			res = m
			return false
		}
		return true
	})
	return res
}

// Metric returns the value of one unlabelled sample on the metrics page
// write renders (a service's WriteMetrics). It fails t when the page cannot
// be written or holds no such sample.
func Metric(t testing.TB, write func(io.Writer) error, name string) int64 {
	t.Helper()
	var sb strings.Builder
	if err := write(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("metrics page has no %s sample", name)
	return 0
}
