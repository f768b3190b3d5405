package xq

import (
	"errors"
	"strings"
	"testing"
)

// deepParens nests n parenthesized expressions around 1.
func deepParens(n int) string { return strings.Repeat("(", n) + "1" + strings.Repeat(")", n) }

// plusChain is 1 followed by n further "+ 1" terms: a left-leaning AST of
// depth n.
func plusChain(n int) string { return "1" + strings.Repeat("+1", n) }

// letChain is a FLWOR of n let clauses: an AST of depth n.
func letChain(n int) string { return strings.Repeat("let $x := 1 ", n) + "return $x" }

// wantDepthError requires src to fail with a SyntaxError naming the bound
// and returns it.
func wantDepthError(t *testing.T, name, src string) *SyntaxError {
	t.Helper()
	_, err := ParseQuery(src)
	var se *SyntaxError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "deeper than") {
		t.Errorf("%s (%d bytes): error %v, want the nesting bound", name, len(src), err)
		return &SyntaxError{}
	}
	return se
}

// TestParseDepthBound: nesting that used to overflow the stack — and kill
// the process with it — is a SyntaxError.
func TestParseDepthBound(t *testing.T) {
	wantDepthError(t, "10^6 parentheses", deepParens(1_000_000))
	// The error sits at the operator that crossed the bound.
	if se := wantDepthError(t, "10^6-term + chain", plusChain(1_000_000)); se.Pos != len(plusChain(maxDepth)) {
		t.Errorf("+ chain: error at offset %d, want the + at %d", se.Pos, len(plusChain(maxDepth)))
	}
	wantDepthError(t, "10^5-clause FLWOR", letChain(100_000))
	wantDepthError(t, "printed 10^4-term chain", PrintQuery(mustParseQuery(plusChain(maxDepth)))+strings.Repeat("+1", 10_000))
}

// TestParseDepthRoundTripsAtBound: at the deepest nesting the parser
// accepts, each shape prints to a module that parses again, so a peer never
// refuses a module its originator accepted; one level more is refused.
func TestParseDepthRoundTripsAtBound(t *testing.T) {
	for _, c := range []struct {
		name  string
		shape func(int) string
		bound int
	}{
		{"parentheses", deepParens, maxParens},
		{"+ chain", plusChain, maxDepth},
		{"FLWOR", letChain, maxDepth},
	} {
		q, err := ParseQuery(c.shape(c.bound))
		if err != nil {
			t.Errorf("%s at the bound: %v", c.name, err)
			continue
		}
		printed := PrintQuery(q)
		if _, err := ParseQuery(printed); err != nil {
			t.Errorf("%s at the bound: printed form does not parse: %v", c.name, err)
		}
		wantDepthError(t, c.name+" past the bound", c.shape(c.bound+1))
	}
}
