package xq

import "fmt"

// The xq tests' shorthands. internal/testkit offers the same helpers to
// other packages' tests, but it imports xq, so xq's own tests cannot use it.

// mustParseQuery parses a query or panics.
func mustParseQuery(src string) *Query {
	q, err := ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

// parseBody parses a standalone expression: a query without a prolog.
func parseBody(src string) (Expr, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	if len(q.Funcs) != 0 {
		return nil, fmt.Errorf("unexpected function declarations in expression")
	}
	return q.Body, nil
}

// printed renders an expression as PrintQuery renders a query with that
// body and no prolog.
func printed(e Expr) string { return PrintQuery(&Query{Body: e}) }
