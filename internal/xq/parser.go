package xq

import (
	"strconv"
	"strings"

	"distxq/internal/xdm"
)

// Parser parses the XQuery-Core dialect. It is a hand-written recursive
// descent parser with one token of primary lookahead plus speculative
// re-lexing for the few places XQuery grammar needs more.
type Parser struct {
	lex *lexer
	tok Token
}

// ParseQuery parses a full query: prolog function declarations then the body.
func ParseQuery(src string) (*Query, error) {
	p := &Parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	q := &Query{}
	for p.isName("declare") {
		fd, err := p.parseFuncDecl()
		if err != nil {
			return nil, err
		}
		q.Funcs = append(q.Funcs, fd)
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TEOF {
		return nil, p.errf("unexpected %s after query body", p.tok)
	}
	q.Body = body
	return q, nil
}

func (p *Parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) errf(format string, args ...any) error {
	return p.lex.errorAt(p.tok.Pos, format, args...)
}

func (p *Parser) isSym(s string) bool  { return p.tok.Kind == TSym && p.tok.Text == s }
func (p *Parser) isName(s string) bool { return p.tok.Kind == TName && p.tok.Text == s }

func (p *Parser) expectSym(s string) error {
	if !p.isSym(s) {
		return p.errf("expected %q, found %s", s, p.tok)
	}
	return p.advance()
}

func (p *Parser) expectName(s string) error {
	if !p.isName(s) {
		return p.errf("expected %q, found %s", s, p.tok)
	}
	return p.advance()
}

func (p *Parser) expectVar() (string, error) {
	if p.tok.Kind != TVar {
		return "", p.errf("expected variable, found %s", p.tok)
	}
	name := p.tok.Text
	return name, p.advance()
}

// peek returns the token after the current one without consuming input.
func (p *Parser) peek() Token {
	saved := *p.lex
	t, err := p.lex.next()
	*p.lex = saved
	if err != nil {
		return Token{Kind: TEOF}
	}
	return t
}

// ---------------------------------------------------------------- prolog --

func (p *Parser) parseFuncDecl() (*FuncDecl, error) {
	if err := p.expectName("declare"); err != nil {
		return nil, err
	}
	if err := p.expectName("function"); err != nil {
		return nil, err
	}
	if p.tok.Kind != TName {
		return nil, p.errf("expected function name, found %s", p.tok)
	}
	fd := &FuncDecl{Name: p.tok.Text, Return: AnyItems}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	for !p.isSym(")") {
		v, err := p.expectVar()
		if err != nil {
			return nil, err
		}
		par := Param{Name: v, Type: AnyItems}
		if p.isName("as") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			st, err := p.parseSeqType()
			if err != nil {
				return nil, err
			}
			par.Type = st
		}
		fd.Params = append(fd.Params, par)
		if p.isSym(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if p.isName("as") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		st, err := p.parseSeqType()
		if err != nil {
			return nil, err
		}
		fd.Return = st
	}
	if err := p.expectSym("{"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	if err := p.expectSym("}"); err != nil {
		return nil, err
	}
	if err := p.expectSym(";"); err != nil {
		return nil, err
	}
	return fd, nil
}

func (p *Parser) parseSeqType() (SeqType, error) {
	if p.tok.Kind != TName {
		return SeqType{}, p.errf("expected sequence type, found %s", p.tok)
	}
	name := p.tok.Text
	if err := p.advance(); err != nil {
		return SeqType{}, err
	}
	if p.isSym("(") {
		if err := p.advance(); err != nil {
			return SeqType{}, err
		}
		if err := p.expectSym(")"); err != nil {
			return SeqType{}, err
		}
		name += "()"
	}
	st := SeqType{Item: name}
	if p.tok.Kind == TSym {
		switch p.tok.Text {
		case "*", "+", "?":
			st.Occur = p.tok.Text[0]
			if err := p.advance(); err != nil {
				return SeqType{}, err
			}
		}
	}
	return st, nil
}

// ----------------------------------------------------------- expressions --

// parseExpr parses Expr: ExprSingle ("," ExprSingle)*.
func (p *Parser) parseExpr() (Expr, error) {
	first, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if !p.isSym(",") {
		return first, nil
	}
	items := []Expr{first}
	for p.isSym(",") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	return &SeqExpr{Items: items}, nil
}

func (p *Parser) parseExprSingle() (Expr, error) {
	if p.tok.Kind == TName {
		switch p.tok.Text {
		case "for", "let":
			return p.parseFLWOR()
		case "if":
			if p.peek().Text == "(" {
				return p.parseIf()
			}
		case "typeswitch":
			if p.peek().Text == "(" {
				return p.parseTypeswitch()
			}
		case "some", "every":
			if p.peek().Kind == TVar {
				return p.parseQuantified()
			}
		case "execute":
			if p.peek().Text == "at" {
				return p.parseExecuteAt()
			}
		}
	}
	return p.parseOr()
}

// parseFLWOR parses a chain of for/let clauses, optional where and order by,
// and the return expression, desugaring into nested For/Let/If.
func (p *Parser) parseFLWOR() (Expr, error) {
	type clause struct {
		isFor bool
		v     string
		e     Expr
	}
	var clauses []clause
	for p.isName("for") || p.isName("let") {
		isFor := p.isName("for")
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			v, err := p.expectVar()
			if err != nil {
				return nil, err
			}
			if isFor {
				if err := p.expectName("in"); err != nil {
					return nil, err
				}
			} else if err := p.expectSym(":="); err != nil {
				return nil, err
			}
			e, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			clauses = append(clauses, clause{isFor: isFor, v: v, e: e})
			if p.isSym(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	var where Expr
	if p.isName("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		where = w
	}
	var order []OrderSpec
	if p.isName("order") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectName("by"); err != nil {
			return nil, err
		}
		for {
			key, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			spec := OrderSpec{Key: key}
			if p.isName("ascending") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.isName("descending") {
				spec.Descending = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			order = append(order, spec)
			if p.isSym(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if err := p.expectName("return"); err != nil {
		return nil, err
	}
	ret, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if where != nil {
		ret = &IfExpr{Cond: where, Then: ret, Else: &SeqExpr{}}
	}
	// Build nested expression inner-to-outer; order by attaches to the
	// innermost for clause.
	attachedOrder := false
	out := ret
	for i := len(clauses) - 1; i >= 0; i-- {
		c := clauses[i]
		if c.isFor {
			fe := &ForExpr{Var: c.v, In: c.e, Return: out}
			if len(order) > 0 && !attachedOrder {
				fe.OrderBy = order
				attachedOrder = true
			}
			out = fe
		} else {
			out = &LetExpr{Var: c.v, Bind: c.e, Return: out}
		}
	}
	if len(order) > 0 && !attachedOrder {
		return nil, p.errf("order by requires a for clause")
	}
	return out, nil
}

func (p *Parser) parseIf() (Expr, error) {
	if err := p.advance(); err != nil { // "if"
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if err := p.expectName("then"); err != nil {
		return nil, err
	}
	thenE, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectName("else"); err != nil {
		return nil, err
	}
	elseE, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &IfExpr{Cond: cond, Then: thenE, Else: elseE}, nil
}

func (p *Parser) parseQuantified() (Expr, error) {
	every := p.isName("every")
	if err := p.advance(); err != nil {
		return nil, err
	}
	v, err := p.expectVar()
	if err != nil {
		return nil, err
	}
	if err := p.expectName("in"); err != nil {
		return nil, err
	}
	in, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectName("satisfies"); err != nil {
		return nil, err
	}
	sat, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &QuantifiedExpr{Every: every, Var: v, In: in, Satisfies: sat}, nil
}

func (p *Parser) parseTypeswitch() (Expr, error) {
	if err := p.advance(); err != nil { // "typeswitch"
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	op, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	ts := &TypeswitchExpr{Operand: op}
	for p.isName("case") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		c := &TSCase{}
		if p.tok.Kind == TVar {
			c.Var = p.tok.Text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectName("as"); err != nil {
				return nil, err
			}
		}
		st, err := p.parseSeqType()
		if err != nil {
			return nil, err
		}
		c.Type = st
		if err := p.expectName("return"); err != nil {
			return nil, err
		}
		r, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		c.Return = r
		ts.Cases = append(ts.Cases, c)
	}
	if len(ts.Cases) == 0 {
		return nil, p.errf("typeswitch requires at least one case")
	}
	if err := p.expectName("default"); err != nil {
		return nil, err
	}
	if p.tok.Kind == TVar {
		ts.DefaultVar = p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectName("return"); err != nil {
		return nil, err
	}
	d, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	ts.Default = d
	return ts, nil
}

// parseExecuteAt parses `execute at {Expr} {FunApp(args)}`.
func (p *Parser) parseExecuteAt() (Expr, error) {
	if err := p.advance(); err != nil { // "execute"
		return nil, err
	}
	if err := p.expectName("at"); err != nil {
		return nil, err
	}
	if err := p.expectSym("{"); err != nil {
		return nil, err
	}
	target, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("}"); err != nil {
		return nil, err
	}
	if err := p.expectSym("{"); err != nil {
		return nil, err
	}
	if p.tok.Kind != TName {
		return nil, p.errf("expected function application in execute at, found %s", p.tok)
	}
	name := p.tok.Text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	call := &FunCall{Name: name}
	for !p.isSym(")") {
		a, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, a)
		if p.isSym(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if err := p.expectSym("}"); err != nil {
		return nil, err
	}
	return &ExecuteAt{Target: target, Call: call}, nil
}

// ------------------------------------------------------- operator ladder --

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isName("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &LogicExpr{And: false, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.isName("and") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		left = &LogicExpr{And: true, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) comparisonOp() (CompOp, bool) {
	if p.tok.Kind == TSym {
		switch p.tok.Text {
		case "=":
			return OpEq, true
		case "!=":
			return OpNe, true
		case "<":
			return OpLt, true
		case "<=":
			return OpLe, true
		case ">":
			return OpGt, true
		case ">=":
			return OpGe, true
		case "<<":
			return OpBefore, true
		case ">>":
			return OpAfter, true
		}
	}
	if p.isName("is") {
		return OpIs, true
	}
	if p.isName("eq") {
		return OpEq, true
	}
	if p.isName("ne") {
		return OpNe, true
	}
	if p.isName("lt") {
		return OpLt, true
	}
	if p.isName("le") {
		return OpLe, true
	}
	if p.isName("gt") {
		return OpGt, true
	}
	if p.isName("ge") {
		return OpGe, true
	}
	return 0, false
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if op, ok := p.comparisonOp(); ok {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &CompareExpr{Op: op, Left: left, Right: right}, nil
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.isSym("+") || p.isSym("-") {
		op := OpAdd
		if p.isSym("-") {
			op = OpSub
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &ArithExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnionExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op ArithOp
		switch {
		case p.isSym("*"):
			op = OpMul
		case p.isName("div"):
			op = OpDiv
		case p.isName("idiv"):
			op = OpIDiv
		case p.isName("mod"):
			op = OpMod
		default:
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnionExpr()
		if err != nil {
			return nil, err
		}
		left = &ArithExpr{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseUnionExpr() (Expr, error) {
	left, err := p.parseIntersectExcept()
	if err != nil {
		return nil, err
	}
	for p.isSym("|") || p.isName("union") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseIntersectExcept()
		if err != nil {
			return nil, err
		}
		left = &NodeSetExpr{Op: OpUnion, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseIntersectExcept() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isName("intersect") || p.isName("except") {
		op := OpIntersect
		if p.isName("except") {
			op = OpExcept
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &NodeSetExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.isSym("-") || p.isSym("+") {
		neg := p.isSym("-")
		if err := p.advance(); err != nil {
			return nil, err
		}
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if !neg {
			return operand, nil
		}
		return &UnaryExpr{Neg: true, Operand: operand}, nil
	}
	return p.parsePath()
}

// ------------------------------------------------------------------ path --

// parsePath parses [("/"|"//")] RelativePath.
func (p *Parser) parsePath() (Expr, error) {
	if p.isSym("/") || p.isSym("//") {
		dsl := p.isSym("//")
		if err := p.advance(); err != nil {
			return nil, err
		}
		pe := &PathExpr{Input: &RootExpr{}}
		if dsl {
			pe.Steps = append(pe.Steps, &Step{Axis: AxisDescendantOrSelf, Test: NodeTest{Kind: TestAnyNode}})
		} else if !p.startsStep() {
			return &RootExpr{}, nil // lone "/"
		}
		if err := p.parseRelative(pe); err != nil {
			return nil, err
		}
		return pe, nil
	}
	if p.startsStep() {
		pe := &PathExpr{}
		if err := p.parseRelative(pe); err != nil {
			return nil, err
		}
		return simplifyPath(pe), nil
	}
	prim, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	// Postfix predicates and path continuation.
	if p.isSym("[") {
		step := &Step{Axis: AxisSelf, Test: NodeTest{Kind: TestAnyNode}, Filter: true}
		if err := p.parsePreds(step); err != nil {
			return nil, err
		}
		pe := &PathExpr{Input: prim, Steps: []*Step{step}}
		if p.isSym("/") || p.isSym("//") {
			if err := p.parseSlashSteps(pe); err != nil {
				return nil, err
			}
		}
		return pe, nil
	}
	if p.isSym("/") || p.isSym("//") {
		pe := &PathExpr{Input: prim}
		if err := p.parseSlashSteps(pe); err != nil {
			return nil, err
		}
		return pe, nil
	}
	return prim, nil
}

// simplifyPath unwraps a PathExpr that has no input and no steps left.
func simplifyPath(pe *PathExpr) Expr {
	if pe.Input != nil || len(pe.Steps) > 0 {
		return pe
	}
	return &ContextItem{}
}

// startsStep reports whether the current token begins an axis step.
func (p *Parser) startsStep() bool {
	switch {
	case p.isSym("@"), p.isSym(".."), p.isSym("*"):
		return true
	case p.tok.Kind == TName:
		nxt := p.peek()
		if nxt.Kind == TSym && nxt.Text == "::" {
			_, ok := ParseAxis(p.tok.Text)
			return ok
		}
		switch p.tok.Text {
		case "node", "text", "comment":
			return nxt.Kind == TSym && nxt.Text == "("
		}
		// A plain name is a child step unless it is a function call or a
		// reserved construct keyword.
		if nxt.Kind == TSym && nxt.Text == "(" {
			return false
		}
		switch p.tok.Text {
		case "element", "attribute", "document", "if", "for", "let", "return",
			"typeswitch", "some", "every", "execute", "then", "else",
			"and", "or", "div", "idiv", "mod", "union", "intersect", "except",
			"is", "eq", "ne", "lt", "le", "gt", "ge", "to", "in", "satisfies",
			"case", "default", "where", "order", "ascending", "descending", "at", "by":
			// Constructor keywords followed by '{' or a name+'{' are
			// constructors; bare occurrences elsewhere are operators or
			// clause keywords, never steps. (To query elements with these
			// names, use an explicit child:: axis.)
			return false
		}
		return true
	}
	return false
}

// parseRelative parses Step (("/"|"//") Step)* appending into pe.
func (p *Parser) parseRelative(pe *PathExpr) error {
	st, err := p.parseStep()
	if err != nil {
		return err
	}
	pe.Steps = append(pe.Steps, st)
	return p.parseSlashSteps(pe)
}

func (p *Parser) parseSlashSteps(pe *PathExpr) error {
	for p.isSym("/") || p.isSym("//") {
		if p.isSym("//") {
			pe.Steps = append(pe.Steps, &Step{Axis: AxisDescendantOrSelf, Test: NodeTest{Kind: TestAnyNode}})
		}
		if err := p.advance(); err != nil {
			return err
		}
		st, err := p.parseStep()
		if err != nil {
			return err
		}
		pe.Steps = append(pe.Steps, st)
	}
	return nil
}

func (p *Parser) parseStep() (*Step, error) {
	st := &Step{Axis: AxisChild}
	switch {
	case p.isSym("@"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		st.Axis = AxisAttribute
	case p.isSym(".."):
		if err := p.advance(); err != nil {
			return nil, err
		}
		st.Axis = AxisParent
		st.Test = NodeTest{Kind: TestAnyNode}
		return st, p.parsePreds(st)
	case p.tok.Kind == TName:
		if nxt := p.peek(); nxt.Kind == TSym && nxt.Text == "::" {
			ax, ok := ParseAxis(p.tok.Text)
			if !ok {
				return nil, p.errf("unknown axis %q", p.tok.Text)
			}
			st.Axis = ax
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.advance(); err != nil { // "::"
				return nil, err
			}
		}
	}
	test, err := p.parseNodeTest()
	if err != nil {
		return nil, err
	}
	st.Test = test
	return st, p.parsePreds(st)
}

func (p *Parser) parseNodeTest() (NodeTest, error) {
	if p.isSym("*") {
		if err := p.advance(); err != nil {
			return NodeTest{}, err
		}
		return NodeTest{Kind: TestWildcard}, nil
	}
	if p.tok.Kind != TName {
		return NodeTest{}, p.errf("expected node test, found %s", p.tok)
	}
	name := p.tok.Text
	if err := p.advance(); err != nil {
		return NodeTest{}, err
	}
	if p.isSym("(") {
		if err := p.advance(); err != nil {
			return NodeTest{}, err
		}
		if err := p.expectSym(")"); err != nil {
			return NodeTest{}, err
		}
		switch name {
		case "node":
			return NodeTest{Kind: TestAnyNode}, nil
		case "text":
			return NodeTest{Kind: TestText}, nil
		case "comment":
			return NodeTest{Kind: TestComment}, nil
		default:
			return NodeTest{}, p.errf("unknown kind test %s()", name)
		}
	}
	return NodeTest{Kind: TestName, Name: name}, nil
}

func (p *Parser) parsePreds(st *Step) error {
	for p.isSym("[") {
		if err := p.advance(); err != nil {
			return err
		}
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		st.Preds = append(st.Preds, e)
		if err := p.expectSym("]"); err != nil {
			return err
		}
	}
	return nil
}

// --------------------------------------------------------------- primary --

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.tok.Kind {
	case TString:
		v := xdm.NewString(p.tok.Text)
		return &Literal{Val: v}, p.advance()
	case TInteger:
		i, err := strconv.ParseInt(p.tok.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %s", p.tok.Text)
		}
		return &Literal{Val: xdm.NewInteger(i)}, p.advance()
	case TDecimal:
		f, err := strconv.ParseFloat(p.tok.Text, 64)
		if err != nil {
			return nil, p.errf("bad numeric literal %s", p.tok.Text)
		}
		return &Literal{Val: xdm.NewDouble(f)}, p.advance()
	case TVar:
		name := p.tok.Text
		return &VarRef{Name: name}, p.advance()
	}
	switch {
	case p.isSym("("):
		return p.parseParenthesized()
	case p.isSym("."):
		return &ContextItem{}, p.advance()
	case p.isSym("<"):
		return p.parseDirectConstructor()
	}
	if p.tok.Kind == TName {
		name := p.tok.Text
		nxt := p.peek()
		switch name {
		case "element", "attribute":
			if nxt.Text == "{" || (nxt.Kind == TName && p.peekAfterName()) {
				return p.parseComputedElemAttr(name == "attribute")
			}
		case "text", "document":
			if nxt.Text == "{" {
				return p.parseComputedTextDoc(name == "document")
			}
		}
		if nxt.Kind == TSym && nxt.Text == "(" {
			return p.parseFunCall()
		}
	}
	return nil, p.errf("unexpected %s", p.tok)
}

// peekAfterName checks `element NAME {` with two-token lookahead.
func (p *Parser) peekAfterName() bool {
	saved := *p.lex
	defer func() { *p.lex = saved }()
	t1, err := p.lex.next()
	if err != nil || t1.Kind != TName {
		return false
	}
	t2, err := p.lex.next()
	if err != nil {
		return false
	}
	return t2.Kind == TSym && t2.Text == "{"
}

func (p *Parser) parseParenthesized() (Expr, error) {
	if err := p.advance(); err != nil { // "("
		return nil, err
	}
	if p.isSym(")") {
		return &SeqExpr{}, p.advance()
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if _, isSeq := e.(*SeqExpr); !isSeq {
		// Parenthesized single expressions keep their identity; only the
		// comma operator builds sequences.
		return e, nil
	}
	return e, nil
}

func (p *Parser) parseFunCall() (Expr, error) {
	name := p.tok.Text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	call := &FunCall{Name: name}
	for !p.isSym(")") {
		a, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, a)
		if p.isSym(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return call, nil
}

func (p *Parser) parseComputedElemAttr(isAttr bool) (Expr, error) {
	if err := p.advance(); err != nil { // element | attribute
		return nil, err
	}
	var name string
	var nameExpr Expr
	if p.tok.Kind == TName {
		name = p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else {
		if err := p.expectSym("{"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		nameExpr = e
		if err := p.expectSym("}"); err != nil {
			return nil, err
		}
	}
	if err := p.expectSym("{"); err != nil {
		return nil, err
	}
	var content []Expr
	if !p.isSym("}") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		content = []Expr{e}
	}
	if err := p.expectSym("}"); err != nil {
		return nil, err
	}
	if isAttr {
		return &AttrConstructor{Name: name, NameExpr: nameExpr, Value: content}, nil
	}
	return &ElemConstructor{Name: name, NameExpr: nameExpr, Content: content}, nil
}

func (p *Parser) parseComputedTextDoc(isDoc bool) (Expr, error) {
	if err := p.advance(); err != nil { // text | document
		return nil, err
	}
	if err := p.expectSym("{"); err != nil {
		return nil, err
	}
	var content Expr = &SeqExpr{}
	if !p.isSym("}") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		content = e
	}
	if err := p.expectSym("}"); err != nil {
		return nil, err
	}
	if isDoc {
		return &DocConstructor{Content: content}, nil
	}
	return &TextConstructor{Content: content}, nil
}

// ----------------------------------------------- direct XML constructors --

// parseDirectConstructor parses `<name attr="v">content</name>` by raw
// scanning the source from the position of the current "<" token.
func (p *Parser) parseDirectConstructor() (Expr, error) {
	pos := p.tok.Pos
	e, end, err := p.scanDirect(pos)
	if err != nil {
		return nil, err
	}
	p.lex.pos = end
	return e, p.advance()
}

// scanDirect scans one direct element constructor starting at src[pos]=='<'.
// It returns the constructor and the position just past the closing tag.
func (p *Parser) scanDirect(pos int) (*ElemConstructor, int, error) {
	src := p.lex.src
	if pos >= len(src) || src[pos] != '<' {
		return nil, 0, p.lex.errorAt(pos, "expected direct constructor")
	}
	i := pos + 1
	name, i, err := p.scanXMLName(i)
	if err != nil {
		return nil, 0, err
	}
	el := &ElemConstructor{Name: name}
	// attributes
	for {
		i = skipXMLSpace(src, i)
		if i >= len(src) {
			return nil, 0, p.lex.errorAt(pos, "unterminated start tag <%s", name)
		}
		if src[i] == '/' || src[i] == '>' {
			break
		}
		aname, j, err := p.scanXMLName(i)
		if err != nil {
			return nil, 0, err
		}
		j = skipXMLSpace(src, j)
		if j >= len(src) || src[j] != '=' {
			return nil, 0, p.lex.errorAt(j, "expected '=' in attribute")
		}
		j = skipXMLSpace(src, j+1)
		if j >= len(src) || (src[j] != '"' && src[j] != '\'') {
			return nil, 0, p.lex.errorAt(j, "expected quoted attribute value")
		}
		q := src[j]
		j++
		var val strings.Builder
		for j < len(src) && src[j] != q {
			if src[j] == '&' {
				rep, n, ok := scanEntity(src[j:])
				if !ok {
					return nil, 0, p.lex.errorAt(j, "bad entity in attribute value")
				}
				val.WriteString(rep)
				j += n
				continue
			}
			val.WriteByte(src[j])
			j++
		}
		if j >= len(src) {
			return nil, 0, p.lex.errorAt(pos, "unterminated attribute value")
		}
		j++ // closing quote
		el.Content = append(el.Content, &AttrConstructor{
			Name:  aname,
			Value: []Expr{&Literal{Val: xdm.NewString(val.String())}},
		})
		i = j
	}
	if src[i] == '/' {
		if i+1 >= len(src) || src[i+1] != '>' {
			return nil, 0, p.lex.errorAt(i, "expected '/>'")
		}
		return el, i + 2, nil
	}
	i++ // '>'
	// content
	var text strings.Builder
	flushText := func() {
		s := text.String()
		text.Reset()
		if strings.TrimSpace(s) == "" {
			return // boundary-space strip (XQuery default)
		}
		el.Content = append(el.Content, &TextConstructor{
			Content: &Literal{Val: xdm.NewString(s)},
		})
	}
	for {
		if i >= len(src) {
			return nil, 0, p.lex.errorAt(pos, "unterminated element <%s>", name)
		}
		switch src[i] {
		case '<':
			if i+1 < len(src) && src[i+1] == '/' {
				flushText()
				j := i + 2
				ename, j, err := p.scanXMLName(j)
				if err != nil {
					return nil, 0, err
				}
				if ename != name {
					return nil, 0, p.lex.errorAt(i, "mismatched end tag </%s>, expected </%s>", ename, name)
				}
				j = skipXMLSpace(src, j)
				if j >= len(src) || src[j] != '>' {
					return nil, 0, p.lex.errorAt(j, "expected '>' in end tag")
				}
				return el, j + 1, nil
			}
			if strings.HasPrefix(src[i:], "<!--") {
				end := strings.Index(src[i+4:], "-->")
				if end < 0 {
					return nil, 0, p.lex.errorAt(i, "unterminated comment in constructor")
				}
				i += 4 + end + 3
				continue
			}
			flushText()
			child, next, err := p.scanDirect(i)
			if err != nil {
				return nil, 0, err
			}
			el.Content = append(el.Content, child)
			i = next
		case '{':
			if i+1 < len(src) && src[i+1] == '{' {
				text.WriteByte('{')
				i += 2
				continue
			}
			flushText()
			// Hand control to the token parser for the enclosed expression.
			p.lex.pos = i + 1
			if err := p.advance(); err != nil {
				return nil, 0, err
			}
			inner, err := p.parseExpr()
			if err != nil {
				return nil, 0, err
			}
			if !p.isSym("}") {
				return nil, 0, p.errf("expected '}' in constructor content, found %s", p.tok)
			}
			el.Content = append(el.Content, inner)
			i = p.tok.End
		case '}':
			if i+1 < len(src) && src[i+1] == '}' {
				text.WriteByte('}')
				i += 2
				continue
			}
			return nil, 0, p.lex.errorAt(i, "unescaped '}' in constructor content")
		case '&':
			rep, n, ok := scanEntity(src[i:])
			if !ok {
				return nil, 0, p.lex.errorAt(i, "bad entity in constructor content")
			}
			text.WriteString(rep)
			i += n
		default:
			text.WriteByte(src[i])
			i++
		}
	}
}

func (p *Parser) scanXMLName(i int) (string, int, error) {
	src := p.lex.src
	if i >= len(src) || !isNameStart(src[i]) {
		return "", 0, p.lex.errorAt(i, "expected XML name")
	}
	start := i
	for i < len(src) && (isNameChar(src[i]) || src[i] == ':') {
		i++
	}
	return src[start:i], i, nil
}

func skipXMLSpace(src string, i int) int {
	for i < len(src) && isSpace(src[i]) {
		i++
	}
	return i
}
