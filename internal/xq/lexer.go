package xq

import (
	"fmt"
	"strconv"
	"strings"

	"distxq/internal/xdm"
)

// TokKind classifies lexer tokens.
type TokKind uint8

// Token kinds.
const (
	TEOF TokKind = iota
	TName
	TVar
	TString
	TInteger
	TDecimal
	TSym
)

// Token is one lexical token. Pos and End are byte offsets into the source.
type Token struct {
	Kind TokKind
	Text string
	Pos  int
	End  int
}

func (t Token) String() string {
	switch t.Kind {
	case TEOF:
		return "end of input"
	case TVar:
		return "$" + t.Text
	case TString:
		return fmt.Sprintf("%q", t.Text)
	default:
		return t.Text
	}
}

// SyntaxError is a lexing or parsing error with source position.
type SyntaxError struct {
	Pos  int
	Line int
	Col  int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xq: syntax error at line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// lexer scans XQuery source text. The parser may reposition it explicitly
// when switching between token scanning and the raw scanning used inside
// direct element constructors.
type lexer struct {
	src string
	pos int
}

func (l *lexer) errorAt(pos int, format string, args ...any) *SyntaxError {
	line, col := 1, 1
	for i := 0; i < pos && i < len(l.src); i++ {
		if l.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return &SyntaxError{Pos: pos, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == '.'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// skipTrivia skips whitespace and (: nested comments :).
func (l *lexer) skipTrivia() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isSpace(c) {
			l.pos++
			continue
		}
		if c == '(' && l.pos+1 < len(l.src) && l.src[l.pos+1] == ':' {
			depth := 1
			i := l.pos + 2
			for i < len(l.src) && depth > 0 {
				if l.src[i] == '(' && i+1 < len(l.src) && l.src[i+1] == ':' {
					depth++
					i += 2
				} else if l.src[i] == ':' && i+1 < len(l.src) && l.src[i+1] == ')' {
					depth--
					i += 2
				} else {
					i++
				}
			}
			if depth > 0 {
				return l.errorAt(l.pos, "unterminated comment")
			}
			l.pos = i
			continue
		}
		return nil
	}
	return nil
}

// next returns the next token.
func (l *lexer) next() (Token, error) {
	if err := l.skipTrivia(); err != nil {
		return Token{}, err
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return Token{Kind: TEOF, Pos: start, End: start}, nil
	}
	c := l.src[l.pos]
	sym := func(s string) (Token, error) {
		l.pos += len(s)
		return Token{Kind: TSym, Text: s, Pos: start, End: l.pos}, nil
	}
	two := func(second byte) bool {
		return l.pos+1 < len(l.src) && l.src[l.pos+1] == second
	}
	switch {
	case c == '"' || c == '\'':
		return l.scanString(c)
	case isDigit(c):
		return l.scanNumber()
	case c == '$':
		l.pos++
		if l.pos >= len(l.src) || !isNameStart(l.src[l.pos]) {
			return Token{}, l.errorAt(start, "expected variable name after $")
		}
		name := l.scanQName()
		return Token{Kind: TVar, Text: name, Pos: start, End: l.pos}, nil
	case isNameStart(c):
		name := l.scanQName()
		return Token{Kind: TName, Text: name, Pos: start, End: l.pos}, nil
	}
	switch c {
	case '(', ')', '{', '}', '[', ']', ',', ';', '@', '|', '*', '+', '-', '=', '?':
		return sym(l.src[l.pos : l.pos+1])
	case ':':
		if two('=') {
			return sym(":=")
		}
		if two(':') {
			return sym("::")
		}
		return Token{}, l.errorAt(start, "unexpected ':'")
	case '.':
		if two('.') {
			return sym("..")
		}
		return sym(".")
	case '/':
		if two('/') {
			return sym("//")
		}
		return sym("/")
	case '<':
		if two('<') {
			return sym("<<")
		}
		if two('=') {
			return sym("<=")
		}
		return sym("<")
	case '>':
		if two('>') {
			return sym(">>")
		}
		if two('=') {
			return sym(">=")
		}
		return sym(">")
	case '!':
		if two('=') {
			return sym("!=")
		}
		return Token{}, l.errorAt(start, "unexpected '!'")
	}
	return Token{}, l.errorAt(start, "unexpected character %q", string(c))
}

func (l *lexer) scanString(quote byte) (Token, error) {
	start := l.pos
	l.pos++ // opening quote
	// A literal without escapes is a slice of the source.
	if end := strings.IndexByte(l.src[l.pos:], quote); end >= 0 {
		body := l.src[l.pos : l.pos+end]
		if !strings.Contains(body, "&") && (l.pos+end+1 >= len(l.src) || l.src[l.pos+end+1] != quote) {
			l.pos += end + 1
			return Token{Kind: TString, Text: body, Pos: start, End: l.pos}, nil
		}
	}
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
				sb.WriteByte(quote) // doubled quote escape
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: TString, Text: sb.String(), Pos: start, End: l.pos}, nil
		}
		if c == '&' {
			ent, n, ok := scanEntity(l.src[l.pos:])
			if !ok {
				return Token{}, l.errorAt(l.pos, "bad entity reference in string literal")
			}
			sb.WriteString(ent)
			l.pos += n
			continue
		}
		sb.WriteByte(c)
		l.pos++
	}
	return Token{}, l.errorAt(start, "unterminated string literal")
}

// scanEntity decodes a predefined XML entity at the start of s, returning the
// replacement text and consumed length.
func scanEntity(s string) (string, int, bool) {
	for ent, rep := range map[string]string{
		"&lt;": "<", "&gt;": ">", "&amp;": "&", "&quot;": `"`, "&apos;": "'",
	} {
		if strings.HasPrefix(s, ent) {
			return rep, len(ent), true
		}
	}
	return "", 0, false
}

func (l *lexer) scanNumber() (Token, error) {
	start := l.pos
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	kind := TInteger
	if l.pos < len(l.src) && l.src[l.pos] == '.' &&
		l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
		kind = TDecimal
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		save := l.pos
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		if l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			kind = TDecimal
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		} else {
			l.pos = save
		}
	}
	return Token{Kind: kind, Text: l.src[start:l.pos], Pos: start, End: l.pos}, nil
}

// scanQName scans an NCName optionally followed by ":NCName" (but never
// consuming the "::" of an axis).
func (l *lexer) scanQName() string {
	start := l.pos
	for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
		l.pos++
	}
	if l.pos+1 < len(l.src) && l.src[l.pos] == ':' &&
		l.src[l.pos+1] != ':' && isNameStart(l.src[l.pos+1]) {
		l.pos++
		for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
			l.pos++
		}
	}
	return l.src[start:l.pos]
}

// literalValue is the value of a string or numeric literal token.
func literalValue(t Token) (xdm.Atomic, error) {
	switch t.Kind {
	case TString:
		return xdm.NewString(t.Text), nil
	case TInteger:
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return xdm.Atomic{}, fmt.Errorf("bad integer literal %s", t.Text)
		}
		return xdm.NewInteger(i), nil
	}
	f, err := strconv.ParseFloat(t.Text, 64)
	if err != nil {
		return xdm.Atomic{}, fmt.Errorf("bad numeric literal %s", t.Text)
	}
	return xdm.NewDouble(f), nil
}
