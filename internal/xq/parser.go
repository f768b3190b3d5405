package xq

import (
	"strings"

	"distxq/internal/xdm"
)

// maxDepth bounds the depth of the AST the parser builds. Every query text
// reaches the parser over the network (xqd's POST body, the module inside an
// XRPC request), so nesting must fail with a SyntaxError before the parser
// or any later recursive pass runs out of stack.
const maxDepth = 1000

// maxParens bounds the nesting of parenthesized expressions, which recurse
// without adding an AST level. The printer brackets only AST nodes, so the
// printed form of an accepted query nests far fewer.
const maxParens = 2 * maxDepth

// Binding powers of the infix operators, loosest first.
const (
	bpOr = 1 + iota
	bpAnd
	bpCompare
	bpAdd
	bpMul
	bpUnion
	bpIntersect
)

// operator is one row of the precedence table: an infix binding power and
// constructor, and for the signs, the prefix constructor.
type operator struct {
	bp       int
	nonAssoc bool // a second operator of the same power may not follow
	infix    func(left, right Expr) Expr
	prefix   func(operand Expr) Expr
}

// operators is the precedence table. Each operator token of the dialect is
// spelled here and nowhere else; the Pratt loop in binary reads it.
var operators = map[string]operator{
	"or":  {bp: bpOr, infix: func(l, r Expr) Expr { return &LogicExpr{Left: l, Right: r} }},
	"and": {bp: bpAnd, infix: func(l, r Expr) Expr { return &LogicExpr{And: true, Left: l, Right: r} }},

	"=": compare(OpEq), "!=": compare(OpNe), "<": compare(OpLt), "<=": compare(OpLe), ">": compare(OpGt), ">=": compare(OpGe),
	"eq": compare(OpEq), "ne": compare(OpNe), "lt": compare(OpLt), "le": compare(OpLe), "gt": compare(OpGt), "ge": compare(OpGe),
	"is": compare(OpIs), "<<": compare(OpBefore), ">>": compare(OpAfter),

	"+": {bp: bpAdd, infix: arith(OpAdd), prefix: func(e Expr) Expr { return e }},
	"-": {bp: bpAdd, infix: arith(OpSub), prefix: func(e Expr) Expr { return &UnaryExpr{Neg: true, Operand: e} }},

	"*": {bp: bpMul, infix: arith(OpMul)}, "div": {bp: bpMul, infix: arith(OpDiv)},
	"idiv": {bp: bpMul, infix: arith(OpIDiv)}, "mod": {bp: bpMul, infix: arith(OpMod)},

	"union": nodeSet(bpUnion, OpUnion), "|": nodeSet(bpUnion, OpUnion),
	"intersect": nodeSet(bpIntersect, OpIntersect), "except": nodeSet(bpIntersect, OpExcept),
}

func compare(op CompOp) operator {
	return operator{bp: bpCompare, nonAssoc: true, infix: func(l, r Expr) Expr { return &CompareExpr{Op: op, Left: l, Right: r} }}
}

func arith(op ArithOp) func(l, r Expr) Expr {
	return func(l, r Expr) Expr { return &ArithExpr{Op: op, Left: l, Right: r} }
}

func nodeSet(bp int, op SetOp) operator {
	return operator{bp: bp, infix: func(l, r Expr) Expr { return &NodeSetExpr{Op: op, Left: l, Right: r} }}
}

// parser parses the XQuery-Core dialect: recursive descent for the
// constructs, one Pratt loop over the operator table for the operators, and
// speculative re-lexing for the few places the grammar needs lookahead.
//
// Errors take one path: the first is kept in err and the token stream turns
// to end of input, so every parse function returns only its Expr and
// unwinds without consuming more.
type parser struct {
	lex    lexer
	tok    Token
	err    error
	depth  int // AST level of the expression being parsed
	deep   int // deepest level the measured expression reaches
	parens int // open parenthesized expressions
	// holes holds the byte offsets of the literal tokens AppendShapeKey
	// holed, in order; hole counts those marked so far.
	holes []int
	hole  int
}

// ParseQuery parses a full query: prolog function declarations then the body.
func ParseQuery(src string) (*Query, error) {
	q, _, err := parseQuery(src, nil)
	return q, err
}

// ParseTemplate parses src+tail and marks each literal of src that
// AppendShapeKey holes with its 1-based index into the argument vector
// (Literal.Hole). exact reports that every hole landed on a literal: only
// then may the parse serve every text of src's shape key.
func ParseTemplate(src, tail string) (q *Query, exact bool, err error) {
	var holes []int
	shape(nil, src, &holes)
	q, marked, err := parseQuery(src+tail, holes)
	return q, err == nil && marked == len(holes), err
}

// parseQuery parses src, marking the literals at the byte offsets holes, and
// returns how many it marked.
func parseQuery(src string, holes []int) (*Query, int, error) {
	p := &parser{lex: lexer{src: src}, holes: holes}
	p.advance()
	q := &Query{}
	for p.is("declare") {
		q.Funcs = append(q.Funcs, p.funcDecl())
	}
	q.Body = p.expr()
	if p.tok.Kind != TEOF {
		p.fail("unexpected %s after query body", p.tok)
	}
	if p.err != nil {
		return nil, 0, p.err
	}
	return q, p.hole, nil
}

func (p *parser) advance() {
	if p.err != nil {
		return
	}
	if p.tok, p.err = p.lex.next(); p.err != nil {
		p.stop()
	}
}

// stop ends the token stream after the first error.
func (p *parser) stop() {
	p.lex.pos = len(p.lex.src)
	p.tok = Token{Kind: TEOF, Pos: p.lex.pos, End: p.lex.pos}
}

func (p *parser) fail(format string, args ...any) { p.failAt(p.tok.Pos, format, args...) }

func (p *parser) failAt(pos int, format string, args ...any) {
	if p.err == nil {
		p.err = p.lex.errorAt(pos, format, args...)
		p.stop()
	}
}

// is reports whether the current token is the symbol or keyword s.
func (p *parser) is(s string) bool {
	return (p.tok.Kind == TSym || p.tok.Kind == TName) && p.tok.Text == s
}

// accept consumes the symbol or keyword s if it is the current token.
func (p *parser) accept(s string) bool {
	if !p.is(s) {
		return false
	}
	p.advance()
	return true
}

func (p *parser) expect(s string) {
	if !p.accept(s) {
		p.fail("expected %q, found %s", s, p.tok)
	}
}

func (p *parser) varName() string {
	if p.tok.Kind != TVar {
		p.fail("expected variable, found %s", p.tok)
		return ""
	}
	name := p.tok.Text
	p.advance()
	return name
}

// peek returns the n-th token after the current one without consuming
// input; a lexing error reads as end of input.
func (p *parser) peek(n int) (t Token) {
	saved := p.lex.pos
	for err := error(nil); n > 0 && err == nil; n-- {
		if t, err = p.lex.next(); err != nil {
			t = Token{Kind: TEOF}
		}
	}
	p.lex.pos = saved
	return t
}

// ----------------------------------------------------------------- depth --

// The depth bound counts AST levels, not brackets: depth is the level of the
// expression being parsed, raised by down for each child slot and by each
// clause of a FLWOR chain. An operator chain, a sequence or a path built in
// a loop pushes the expression parsed so far one level down with lower,
// which needs that expression's height: measure starts a measurement at the
// current level, reach records each level the AST reaches, and settle folds
// the measurement back into the enclosing one.

func (p *parser) down() { p.depth++; p.reach(p.depth, p.tok.Pos) }
func (p *parser) up()   { p.depth-- }

func (p *parser) reach(level, pos int) {
	if level > maxDepth {
		p.failAt(pos, "expression nests deeper than %d levels", maxDepth)
	}
	p.deep = max(p.deep, level)
}

func (p *parser) measure() int     { outer := p.deep; p.deep = p.depth; return outer }
func (p *parser) settle(outer int) { p.deep = max(p.deep, outer) }
func (p *parser) lower()           { p.reach(p.deep+1, p.tok.Pos) }

// single parses an ExprSingle, and nested an Expr, one level down.
func (p *parser) single() Expr { p.down(); e := p.exprSingle(); p.up(); return e }
func (p *parser) nested() Expr { p.down(); e := p.expr(); p.up(); return e }

func (p *parser) funcDecl() *FuncDecl {
	p.expect("declare")
	p.expect("function")
	if p.tok.Kind != TName {
		p.fail("expected function name, found %s", p.tok)
	}
	fd := &FuncDecl{Name: p.tok.Text, Return: AnyItems}
	p.advance()
	p.expect("(")
	for !p.is(")") {
		par := Param{Name: p.varName(), Type: AnyItems}
		if p.accept("as") {
			par.Type = p.seqType()
		}
		fd.Params = append(fd.Params, par)
		if !p.accept(",") {
			break
		}
	}
	p.expect(")")
	if p.accept("as") {
		fd.Return = p.seqType()
	}
	p.expect("{")
	fd.Body = p.expr()
	p.expect("}")
	p.expect(";")
	return fd
}

func (p *parser) seqType() SeqType {
	if p.tok.Kind != TName {
		p.fail("expected sequence type, found %s", p.tok)
		return SeqType{}
	}
	st := SeqType{Item: p.tok.Text}
	p.advance()
	if p.accept("(") {
		p.expect(")")
		st.Item += "()"
	}
	if p.is("*") || p.is("+") || p.is("?") {
		st.Occur = p.tok.Text[0]
		p.advance()
	}
	return st
}

// expr parses Expr: ExprSingle ("," ExprSingle)*.
func (p *parser) expr() Expr {
	defer p.settle(p.measure())
	first := p.exprSingle()
	if !p.is(",") {
		return first
	}
	p.lower()
	items := []Expr{first}
	for p.accept(",") {
		items = append(items, p.single())
	}
	return &SeqExpr{Items: items}
}

func (p *parser) exprSingle() Expr {
	if p.tok.Kind == TName {
		switch p.tok.Text {
		case "for", "let":
			return p.flwor()
		case "if", "typeswitch":
			if p.peek(1).Text == "(" {
				if p.tok.Text == "if" {
					return p.ifExpr()
				}
				return p.typeswitch()
			}
		case "some", "every":
			if p.peek(1).Kind == TVar {
				return p.quantified()
			}
		case "execute":
			if p.peek(1).Text == "at" {
				return p.executeAt()
			}
		}
	}
	return p.binary(0)
}

// flwor parses a chain of for/let clauses, optional where and order by, and
// the return expression, desugaring into nested For/Let/If; order by
// attaches to the innermost for. Clause i sits at level depth+i, so each
// clause moves the parse one level down.
func (p *parser) flwor() Expr {
	var out Expr
	slot := &out // where the next clause or the return goes
	var innermost *ForExpr
	base := p.depth
	for p.is("for") || p.is("let") {
		isFor := p.is("for")
		p.advance()
		for {
			v := p.varName()
			if isFor {
				p.expect("in")
				fe := &ForExpr{Var: v, In: p.single()}
				*slot, slot, innermost = fe, &fe.Return, fe
			} else {
				p.expect(":=")
				le := &LetExpr{Var: v, Bind: p.single()}
				*slot, slot = le, &le.Return
			}
			p.down()
			if !p.accept(",") {
				break
			}
		}
	}
	var where Expr
	if p.accept("where") {
		where = p.single()
	}
	var order []OrderSpec
	if p.accept("order") {
		p.expect("by")
		for {
			spec := OrderSpec{Key: p.single()}
			if p.accept("descending") {
				spec.Descending = true
			} else {
				p.accept("ascending")
			}
			order = append(order, spec)
			if !p.accept(",") {
				break
			}
		}
	}
	p.expect("return")
	if where != nil {
		*slot = &IfExpr{Cond: where, Then: p.single(), Else: &SeqExpr{}}
	} else {
		*slot = p.exprSingle()
	}
	p.depth = base
	if order != nil {
		if innermost == nil {
			p.fail("order by requires a for clause")
		} else {
			innermost.OrderBy = order
		}
	}
	return out
}

func (p *parser) ifExpr() Expr {
	p.advance() // "if"
	p.expect("(")
	cond := p.nested()
	p.expect(")")
	p.expect("then")
	thenE := p.single()
	p.expect("else")
	return &IfExpr{Cond: cond, Then: thenE, Else: p.single()}
}

func (p *parser) quantified() Expr {
	every := p.is("every")
	p.advance()
	v := p.varName()
	p.expect("in")
	in := p.single()
	p.expect("satisfies")
	return &QuantifiedExpr{Every: every, Var: v, In: in, Satisfies: p.single()}
}

func (p *parser) typeswitch() Expr {
	p.advance() // "typeswitch"
	p.expect("(")
	ts := &TypeswitchExpr{Operand: p.nested()}
	p.expect(")")
	for p.accept("case") {
		c := &TSCase{}
		if p.tok.Kind == TVar {
			c.Var = p.tok.Text
			p.advance()
			p.expect("as")
		}
		c.Type = p.seqType()
		p.expect("return")
		c.Return = p.single()
		ts.Cases = append(ts.Cases, c)
	}
	if len(ts.Cases) == 0 {
		p.fail("typeswitch requires at least one case")
	}
	p.expect("default")
	if p.tok.Kind == TVar {
		ts.DefaultVar = p.tok.Text
		p.advance()
	}
	p.expect("return")
	ts.Default = p.single()
	return ts
}

// executeAt parses `execute at {Expr} {FunApp(args)}`.
func (p *parser) executeAt() Expr {
	p.advance() // "execute"
	p.expect("at")
	p.expect("{")
	target := p.nested()
	p.expect("}")
	p.expect("{")
	if p.tok.Kind != TName {
		p.fail("expected function application in execute at, found %s", p.tok)
	}
	p.down()
	call := p.funCall()
	p.up()
	p.expect("}")
	return &ExecuteAt{Target: target, Call: call}
}

// ------------------------------------------------------- operator table --

// binary is the Pratt loop: it parses a unary operand, then folds in each
// infix operator whose binding power is at least minBP, parsing its right
// operand with the power one higher so that equal powers associate left.
// After a non-associative operator the loop takes only looser ones, so
// `a = b = c` stops at the second `=`.
func (p *parser) binary(minBP int) Expr {
	defer p.settle(p.measure())
	left := p.unary()
	maxBP := bpIntersect
	for {
		op, ok := p.operator()
		if !ok || op.bp < minBP || op.bp > maxBP {
			return left
		}
		p.lower()
		p.advance()
		p.down()
		right := p.binary(op.bp + 1)
		p.up()
		left = op.infix(left, right)
		maxBP = op.bp
		if op.nonAssoc {
			maxBP--
		}
	}
}

// operator returns the table row of the current token.
func (p *parser) operator() (operator, bool) {
	op, ok := operators[p.tok.Text]
	return op, ok && (p.tok.Kind == TSym || p.tok.Kind == TName)
}

func (p *parser) unary() Expr {
	if op, ok := p.operator(); ok && op.prefix != nil {
		p.advance()
		p.down()
		operand := p.unary()
		p.up()
		return op.prefix(operand)
	}
	return p.path()
}

// path parses [("/"|"//")] RelativePath, or a primary with predicates and
// steps after it.
func (p *parser) path() Expr {
	defer p.settle(p.measure())
	if p.is("/") || p.is("//") {
		pe := &PathExpr{Input: &RootExpr{}}
		if p.is("//") {
			pe.Steps = append(pe.Steps, &Step{Axis: AxisDescendantOrSelf, Test: NodeTest{Kind: TestAnyNode}})
		}
		p.advance()
		if len(pe.Steps) == 0 && !p.startsStep() {
			return pe.Input // lone "/"
		}
		pe.Steps = append(pe.Steps, p.step())
		p.slashSteps(pe)
		return pe
	}
	if p.startsStep() {
		pe := &PathExpr{Steps: []*Step{p.step()}}
		p.slashSteps(pe)
		return pe
	}
	prim := p.primary()
	if !p.is("[") && !p.is("/") && !p.is("//") {
		return prim
	}
	p.lower()
	pe := &PathExpr{Input: prim}
	if p.is("[") {
		step := &Step{Axis: AxisSelf, Test: NodeTest{Kind: TestAnyNode}, Filter: true}
		p.preds(step)
		pe.Steps = []*Step{step}
	}
	p.slashSteps(pe)
	return pe
}

// startsStep reports whether the current token begins an axis step.
func (p *parser) startsStep() bool {
	switch {
	case p.is("@"), p.is(".."), p.is("*"):
		return true
	case p.tok.Kind == TName:
		nxt := p.peek(1)
		if nxt.Kind == TSym && nxt.Text == "::" {
			_, ok := ParseAxis(p.tok.Text)
			return ok
		}
		if _, ok := kindTests[p.tok.Text]; ok {
			return nxt.Kind == TSym && nxt.Text == "("
		}
		// A plain name is a child step unless it is a function call, an
		// operator or a clause keyword. (To query elements with these
		// names, use an explicit child:: axis.)
		if nxt.Kind == TSym && nxt.Text == "(" {
			return false
		}
		if _, ok := operators[p.tok.Text]; ok {
			return false
		}
		switch p.tok.Text {
		case "element", "attribute", "document", "if", "for", "let", "return",
			"typeswitch", "some", "every", "execute", "then", "else", "to", "in",
			"satisfies", "case", "default", "where", "order", "ascending",
			"descending", "at", "by":
			return false
		}
		return true
	}
	return false
}

func (p *parser) slashSteps(pe *PathExpr) {
	for p.is("/") || p.is("//") {
		if p.is("//") {
			pe.Steps = append(pe.Steps, &Step{Axis: AxisDescendantOrSelf, Test: NodeTest{Kind: TestAnyNode}})
		}
		p.advance()
		pe.Steps = append(pe.Steps, p.step())
	}
}

func (p *parser) step() *Step {
	st := &Step{Axis: AxisChild}
	switch {
	case p.accept("@"):
		st.Axis = AxisAttribute
	case p.accept(".."):
		st.Axis = AxisParent
		st.Test = NodeTest{Kind: TestAnyNode}
		p.preds(st)
		return st
	case p.tok.Kind == TName:
		if nxt := p.peek(1); nxt.Kind == TSym && nxt.Text == "::" {
			ax, ok := ParseAxis(p.tok.Text)
			if !ok {
				p.fail("unknown axis %q", p.tok.Text)
			}
			st.Axis = ax
			p.advance()
			p.advance() // "::"
		}
	}
	st.Test = p.nodeTest()
	p.preds(st)
	return st
}

func (p *parser) nodeTest() NodeTest {
	if p.accept("*") {
		return NodeTest{Kind: TestWildcard}
	}
	if p.tok.Kind != TName {
		p.fail("expected node test, found %s", p.tok)
		return NodeTest{}
	}
	name := p.tok.Text
	p.advance()
	if !p.accept("(") {
		return NodeTest{Kind: TestName, Name: name}
	}
	p.expect(")")
	if kind, ok := kindTests[name]; ok {
		return NodeTest{Kind: kind}
	}
	p.fail("unknown kind test %s()", name)
	return NodeTest{}
}

// kindTests are the node tests spelled as a name and "()".
var kindTests = map[string]TestKind{"node": TestAnyNode, "text": TestText, "comment": TestComment}

func (p *parser) preds(st *Step) {
	for p.accept("[") {
		st.Preds = append(st.Preds, p.nested())
		p.expect("]")
	}
}

func (p *parser) primary() Expr {
	switch t := p.tok; t.Kind {
	case TString, TInteger, TDecimal:
		v, err := literalValue(t)
		if err != nil {
			p.fail("%v", err)
		}
		p.advance()
		lit := &Literal{Val: v}
		if p.hole < len(p.holes) && p.holes[p.hole] == t.Pos {
			p.hole++
			lit.Hole = p.hole
		}
		return lit
	case TVar:
		p.advance()
		return &VarRef{Name: t.Text}
	}
	switch {
	case p.is("("):
		return p.parenthesized()
	case p.accept("."):
		return &ContextItem{}
	case p.is("<"):
		// Direct content sits two levels down, where its printed computed
		// form puts it: inside the content sequence.
		p.depth += 2
		e, end := p.scanDirect(p.tok.Pos)
		p.depth -= 2
		if p.err == nil {
			p.lex.pos = end
			p.advance()
		}
		return e
	}
	if p.tok.Kind == TName {
		name := p.tok.Text
		nxt := p.peek(1)
		switch name {
		case "element", "attribute":
			if after := p.peek(2); nxt.Text == "{" || (nxt.Kind == TName && after.Kind == TSym && after.Text == "{") {
				return p.computed(name)
			}
		case "text", "document":
			if nxt.Text == "{" {
				return p.computed(name)
			}
		}
		if nxt.Kind == TSym && nxt.Text == "(" {
			return p.funCall()
		}
	}
	p.fail("unexpected %s", p.tok)
	return nil
}

// parenthesized parses "(" Expr? ")". A parenthesized expression is its
// content: it adds no AST level, only a nesting of its own bound.
func (p *parser) parenthesized() Expr {
	open := p.tok.Pos
	p.advance()
	if p.accept(")") {
		return &SeqExpr{}
	}
	if p.parens++; p.parens > maxParens {
		p.failAt(open, "parentheses nest deeper than %d levels", maxParens)
	}
	e := p.expr()
	p.parens--
	p.expect(")")
	return e
}

func (p *parser) funCall() *FunCall {
	call := &FunCall{Name: p.tok.Text}
	p.advance()
	p.expect("(")
	for !p.is(")") {
		call.Args = append(call.Args, p.single())
		if !p.accept(",") {
			break
		}
	}
	p.expect(")")
	return call
}

// computed parses `element|attribute (NAME | {Expr}) {Expr?}` and
// `text|document {Expr?}`.
func (p *parser) computed(kind string) Expr {
	p.advance()
	var name string
	var nameExpr Expr
	if kind == "element" || kind == "attribute" {
		if p.tok.Kind == TName {
			name = p.tok.Text
			p.advance()
		} else {
			p.expect("{")
			nameExpr = p.nested()
			p.expect("}")
		}
	}
	p.expect("{")
	var content Expr
	if !p.is("}") {
		content = p.nested()
	}
	p.expect("}")
	switch {
	case kind == "element" || kind == "attribute":
		var list []Expr
		if content != nil {
			list = []Expr{content}
		}
		if kind == "attribute" {
			return &AttrConstructor{Name: name, NameExpr: nameExpr, Value: list}
		}
		return &ElemConstructor{Name: name, NameExpr: nameExpr, Content: list}
	case content == nil:
		content = &SeqExpr{}
	}
	if kind == "document" {
		return &DocConstructor{Content: content}
	}
	return &TextConstructor{Content: content}
}

// ----------------------------------------------- direct XML constructors --

// scanDirect scans `<name attr="v">content</name>` raw from src[pos] == '<',
// with depth at the level of its content, and returns the constructor and
// the position just past its end.
func (p *parser) scanDirect(pos int) (*ElemConstructor, int) {
	src := p.lex.src
	p.reach(p.depth+1, pos) // the text under a content item
	name, i := p.xmlName(pos + 1)
	el := &ElemConstructor{Name: name}
	for p.err == nil { // attributes
		if i = skipXMLSpace(src, i); i >= len(src) {
			p.failAt(pos, "unterminated start tag <%s", name)
			return el, i
		}
		if src[i] == '/' || src[i] == '>' {
			break
		}
		aname, j := p.xmlName(i)
		if j = skipXMLSpace(src, j); j >= len(src) || src[j] != '=' {
			p.failAt(j, "expected '=' in attribute")
			return el, j
		}
		if j = skipXMLSpace(src, j+1); j >= len(src) || (src[j] != '"' && src[j] != '\'') {
			p.failAt(j, "expected quoted attribute value")
			return el, j
		}
		end := len(src)
		if k := strings.IndexByte(src[j+1:], src[j]); k >= 0 {
			end = j + 1 + k
		}
		val := p.unescape(src[j+1:end], j+1)
		if end == len(src) {
			p.failAt(pos, "unterminated attribute value")
		}
		el.Content = append(el.Content, &AttrConstructor{Name: aname, Value: []Expr{&Literal{Val: xdm.NewString(val)}}})
		i = end + 1
	}
	if p.err != nil {
		return el, i
	}
	if src[i] == '/' {
		if i+1 >= len(src) || src[i+1] != '>' {
			p.failAt(i, "expected '/>'")
		}
		return el, i + 2
	}
	i++ // '>'
	var text strings.Builder
	for p.err == nil {
		if i >= len(src) {
			p.failAt(pos, "unterminated element <%s>", name)
			break
		}
		switch c := src[i]; {
		case c == '<' && i+1 < len(src) && src[i+1] == '/':
			flushText(el, &text)
			ename, j := p.xmlName(i + 2)
			if ename != name {
				p.failAt(i, "mismatched end tag </%s>, expected </%s>", ename, name)
			}
			if j = skipXMLSpace(src, j); j >= len(src) || src[j] != '>' {
				p.failAt(j, "expected '>' in end tag")
			}
			return el, j + 1
		case c == '<' && strings.HasPrefix(src[i:], "<!--"):
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				p.failAt(i, "unterminated comment in constructor")
			}
			i += 4 + end + 3
		case c == '<':
			flushText(el, &text)
			p.depth += 2
			child, next := p.scanDirect(i)
			p.depth -= 2
			el.Content = append(el.Content, child)
			i = next
		case (c == '{' || c == '}') && i+1 < len(src) && src[i+1] == c:
			text.WriteByte(c)
			i += 2
		case c == '}':
			p.failAt(i, "unescaped '}' in constructor content")
		case c == '{':
			flushText(el, &text)
			// Hand control to the token parser for the enclosed expression.
			p.lex.pos = i + 1
			p.advance()
			el.Content = append(el.Content, p.expr())
			if !p.is("}") {
				p.fail("expected '}' in constructor content, found %s", p.tok)
			}
			i = p.tok.End
		case c == '&':
			rep, n, ok := scanEntity(src[i:])
			if !ok {
				p.failAt(i, "bad entity in constructor content")
			}
			text.WriteString(rep)
			i += n
		default:
			text.WriteByte(c)
			i++
		}
	}
	return el, i
}

// unescape decodes the predefined entities of an attribute value s that
// starts at src[at].
func (p *parser) unescape(s string, at int) string {
	var b strings.Builder
	for k := 0; k < len(s); {
		if s[k] != '&' {
			b.WriteByte(s[k])
			k++
			continue
		}
		rep, n, ok := scanEntity(s[k:])
		if !ok {
			p.failAt(at+k, "bad entity in attribute value")
			break
		}
		b.WriteString(rep)
		k += n
	}
	return b.String()
}

// flushText appends the character data scanned so far as a text node,
// unless it is boundary whitespace (the XQuery default strips it).
func flushText(el *ElemConstructor, text *strings.Builder) {
	s := text.String()
	text.Reset()
	if strings.TrimSpace(s) != "" {
		el.Content = append(el.Content, &TextConstructor{Content: &Literal{Val: xdm.NewString(s)}})
	}
}

func (p *parser) xmlName(i int) (string, int) {
	src := p.lex.src
	if i >= len(src) || !isNameStart(src[i]) {
		p.failAt(i, "expected XML name")
		return "", i
	}
	start := i
	for i < len(src) && (isNameChar(src[i]) || src[i] == ':') {
		i++
	}
	return src[start:i], i
}

func skipXMLSpace(src string, i int) int {
	for i < len(src) && isSpace(src[i]) {
		i++
	}
	return i
}
