package xq

import (
	"encoding/binary"
	"strings"

	"distxq/internal/xdm"
)

// Shape keys. One lexer pass turns a query text into a key and an argument
// vector: every literal token becomes a typed hole in the key and its value
// the next argument, unless the literal is structural — a value some pass
// reads at plan time rather than at run time — in which case it stays in the
// key. Texts with one key parse, decompose, normalize and print alike up to
// the values of their holes, so a plan (or a peer's module) parsed from one
// of them serves them all, reading the holes from the run's vector
// (ParseTemplate marks them). The structural literals:
//
//   - every literal inside the parentheses of doc() or collection(), which
//     the decomposition conditions and projection read as a URI;
//   - every literal inside an `execute at` target;
//   - a number alone (parentheses aside) inside [...], a positional
//     predicate;
//   - a literal in a namespace, module or import declaration (up to its
//     ';'), and a string right after the name at.
//
// A text in which a `<` could open a direct element constructor keys on
// the text itself, with no holes: constructor content is not made of
// tokens. So does a text that does not lex. When the rule cannot tell, the literal stays structural: a miss
// costs a plan, a wrong hit a wrong answer.

// Key bytes: a key starts with keyTokens or keyVerbatim. A name, variable
// or symbol is its kind byte and its text, which holds no byte below 0x20;
// a structural literal is its kind byte, length and text; a hole is one of
// the hole bytes.
const (
	keyTokens   = 'T'
	keyVerbatim = 'V'

	holeString  = 0x10
	holeInteger = 0x11
	holeDecimal = 0x12
	holeDouble  = 0x13
)

// AppendShapeKey appends the shape key of query text src to dst and returns
// it, with src's argument vector. A text that does not lex (or holds a
// number out of range) keys on itself; parsing it reports why.
func AppendShapeKey(dst []byte, src string) (key []byte, args []xdm.Atomic) {
	return shape(dst, src, nil)
}

// shape is AppendShapeKey, which also appends the byte offset of each hole's
// token to pos when pos is not nil.
func shape(dst []byte, src string, pos *[]int) (key []byte, args []xdm.Atomic) {
	verbatim := func() ([]byte, []xdm.Atomic) {
		if pos != nil {
			*pos = (*pos)[:0]
		}
		return append(append(dst, keyVerbatim), src...), nil
	}
	key = append(dst, keyTokens)
	l := lexer{src: src}
	var buf [16]bool
	open := buf[:0]    // the brackets open, true where structural
	structural := 0    // of them, the structural ones
	predStart := false // only '(' since a '['
	prolog := false    // in a namespace, module or import declaration
	var prev, prev2 Token
	for {
		t, err := l.next()
		if err != nil {
			return verbatim()
		}
		if t.Kind == TEOF {
			break
		}
		switch t.Kind {
		case TString, TInteger, TDecimal:
			v, err := literalValue(t)
			if err != nil {
				return verbatim()
			}
			if structural > 0 || prolog || prev.Kind == TName && prev.Text == "at" ||
				t.Kind != TString && predStart && alonePred(l) {
				// A string may hold any byte: the length delimits it.
				key = binary.AppendUvarint(append(key, byte(t.Kind)), uint64(len(t.Text)))
				key = append(key, t.Text...)
				break
			}
			key = append(key, holeOf(t))
			if args == nil {
				// One allocation for every string hole to come, a few numbers.
				args = make([]xdm.Atomic, 0, strings.Count(src[t.Pos:], `"`)/2+2)
			}
			args = append(args, v)
			if pos != nil {
				*pos = append(*pos, t.Pos)
			}
		case TSym:
			switch t.Text {
			case "<":
				if l.pos < len(src) && (isNameStart(src[l.pos]) || src[l.pos] == '!' || src[l.pos] == '?') {
					return verbatim()
				}
			case "(", "[", "{":
				s := t.Text == "(" && prev.Kind == TName && isDocFunc(prev.Text) ||
					t.Text == "{" && prev.Text == "at" && prev2.Text == "execute"
				if s {
					structural++
				}
				open = append(open, s)
			case ")", "]", "}":
				if n := len(open); n > 0 {
					if open[n-1] {
						structural--
					}
					open = open[:n-1]
				}
			}
			key = append(append(key, byte(t.Kind)), t.Text...)
		default:
			prolog = prolog || t.Kind == TName && (t.Text == "namespace" || t.Text == "module" || t.Text == "import")
			key = append(append(key, byte(t.Kind)), t.Text...)
		}
		prolog = prolog && !(t.Kind == TSym && t.Text == ";")
		predStart = t.Kind == TSym && (t.Text == "[" || t.Text == "(" && predStart)
		prev2, prev = prev, t
	}
	return key, args
}

// alonePred reports whether the tokens l reads next are ')'s and then a
// ']': the literal just read is alone in its predicate.
func alonePred(l lexer) bool {
	for {
		t, err := l.next()
		if err != nil || t.Kind != TSym {
			return false
		}
		switch t.Text {
		case "]":
			return true
		case ")":
		default:
			return false
		}
	}
}

func isDocFunc(name string) bool {
	switch strings.TrimPrefix(name, "fn:") {
	case "doc", "collection":
		return true
	}
	return false
}

func holeOf(t Token) byte {
	switch {
	case t.Kind == TString:
		return holeString
	case t.Kind == TInteger:
		return holeInteger
	case strings.ContainsAny(t.Text, "eE"):
		return holeDouble
	}
	return holeDecimal
}
