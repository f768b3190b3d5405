package eval

// The tree-walker: a direct interpreter of the normalized AST, kept as the
// differential oracle the compiled executor is checked against
// (FuzzCompiledVsTreeWalk and the tests that route through treeWalk). It
// shares every kernel with compiled code — the axis scanners, comparison,
// arithmetic, the order-by comparator, the constructor builder, the remote
// dispatch routines and the builtins — and interprets only the expression
// structure around them, so a disagreement points at a lowering rule.

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// treeWalk normalizes q and evaluates it on the tree-walker, as Query does
// on compiled code. It attaches nothing to q.
func treeWalk(e *Engine, q *xq.Query) (xdm.Sequence, error) {
	if err := xq.Normalize(q); err != nil {
		return nil, err
	}
	return e.walker(e.newContext(), q.Funcs).eval(q.Body)
}

// treeWalkString parses src and evaluates it on the tree-walker.
func treeWalkString(e *Engine, src string) (xdm.Sequence, error) {
	q, err := xq.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return treeWalk(e, q)
}

// treeWalkFunction is EvalFunctionDeadline on the tree-walker: it calls the
// first declaration of name with len(args) parameters.
func treeWalkFunction(e *Engine, q *xq.Query, name string, args []xdm.Sequence, static *StaticContext, deadline time.Time) (xdm.Sequence, error) {
	ctx, err := e.callContext(q, static, deadline)
	if err != nil {
		return nil, err
	}
	for _, f := range q.Funcs {
		if f.Name == name && len(f.Params) == len(args) {
			return e.walker(ctx, q.Funcs).callDeclared(f, args)
		}
	}
	return nil, undeclared(name, len(args))
}

// walker is the tree-walker's dynamic context: the context compiled code
// reads, plus the declared functions by name/arity and the variable chain.
type walker struct {
	context
	funcs map[string]*xq.FuncDecl
	vars  *frame
}

// walker returns a walker over ctx that calls the declared funcs.
func (e *Engine) walker(ctx *context, funcs []*xq.FuncDecl) *walker {
	fm := map[string]*xq.FuncDecl{}
	for _, f := range funcs {
		fm[fmt.Sprintf("%s/%d", f.Name, len(f.Params))] = f
	}
	return &walker{context: *ctx, funcs: fm}
}

// frame is one variable binding in a linked environment, or a memo frame
// (memo set, no name) whose val is its operand's value once evaluated. An
// evaluation runs on one goroutine, so a memo needs no lock.
type frame struct {
	name string
	val  xdm.Sequence
	next *frame
	memo *memoOp
}

func (c *walker) bind(name string, val xdm.Sequence) *walker {
	nc := *c
	nc.vars = &frame{name: name, val: val, next: c.vars}
	return &nc
}

func (c *walker) withItem(it xdm.Item, pos, size int) *walker {
	nc := *c
	nc.item, nc.pos, nc.size = it, pos, size
	return &nc
}

// lookup returns the value of the innermost binding of name.
func (c *walker) lookup(name string) (xdm.Sequence, bool) {
	for f := c.vars; f != nil; f = f.next {
		if f.name == name {
			return f.val, true
		}
	}
	return nil, false
}

// callDeclared evaluates a declared function body with a fresh environment
// containing only its parameters (XQuery functions do not close over the
// caller's variables).
func (c *walker) callDeclared(f *xq.FuncDecl, args []xdm.Sequence) (xdm.Sequence, error) {
	nc := &walker{context: context{eng: c.eng, static: c.static, stop: c.stop}, funcs: c.funcs}
	for i, p := range f.Params {
		if err := checkSeqType(args[i], p.Type); err != nil {
			return nil, fmt.Errorf("eval: %s($%s): %w", f.Name, p.Name, err)
		}
		nc = nc.bind(p.Name, args[i])
	}
	res, err := nc.eval(f.Body)
	if err != nil {
		return nil, err
	}
	if err := checkSeqType(res, f.Return); err != nil {
		return nil, fmt.Errorf("eval: %s result: %w", f.Name, err)
	}
	return res, nil
}

func (c *walker) eval(e xq.Expr) (xdm.Sequence, error) {
	if err := c.stop.check(); err != nil {
		return nil, err
	}
	switch v := e.(type) {
	case nil:
		return xdm.EmptySequence, nil
	case *xq.Literal:
		return xdm.Singleton(v.Val), nil
	case *xq.VarRef:
		val, ok := c.lookup(v.Name)
		if !ok {
			return nil, fmt.Errorf("eval: unbound variable $%s", v.Name)
		}
		return val, nil
	case *xq.ContextItem:
		if c.item == nil {
			return nil, fmt.Errorf("eval: context item is undefined")
		}
		return xdm.Singleton(c.item), nil
	case *xq.RootExpr:
		n, ok := c.item.(*xdm.Node)
		if !ok {
			return nil, fmt.Errorf("eval: '/' requires a node context item")
		}
		return xdm.Singleton(n.RootNode()), nil
	case *xq.SeqExpr:
		out := xdm.Sequence{}
		for _, it := range v.Items {
			s, err := c.eval(it)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		return out, nil
	case *xq.ForExpr:
		return c.evalFor(v)
	case *xq.LetExpr:
		bound, err := c.eval(v.Bind)
		if err != nil {
			return nil, err
		}
		return c.bind(v.Var, bound).eval(v.Return)
	case *xq.IfExpr:
		cond, err := c.eval(v.Cond)
		if err != nil {
			return nil, err
		}
		b, ok := cond.EffectiveBoolean()
		if !ok {
			return nil, fmt.Errorf("eval: invalid effective boolean value in if condition")
		}
		if b {
			return c.eval(v.Then)
		}
		return c.eval(v.Else)
	case *xq.QuantifiedExpr:
		return c.evalQuantified(v)
	case *xq.TypeswitchExpr:
		return c.evalTypeswitch(v)
	case *xq.LogicExpr:
		return c.evalLogic(v)
	case *xq.CompareExpr:
		return c.evalCompare(v)
	case *xq.ArithExpr:
		return c.evalArith(v)
	case *xq.UnaryExpr:
		s, err := c.eval(v.Operand)
		if err != nil {
			return nil, err
		}
		atoms := s.Atomize()
		if len(atoms) == 0 {
			return xdm.EmptySequence, nil
		}
		if len(atoms) != 1 {
			return nil, fmt.Errorf("eval: unary minus over a sequence")
		}
		a := atoms[0]
		if a.T == xdm.TInteger {
			return xdm.Singleton(xdm.NewInteger(-a.I)), nil
		}
		return xdm.Singleton(xdm.NewDouble(-a.Number())), nil
	case *xq.NodeSetExpr:
		return c.evalNodeSet(v)
	case *xq.PathExpr:
		return c.evalPath(v)
	case *xq.ElemConstructor:
		n, err := c.constructElement(v)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(n), nil
	case *xq.AttrConstructor:
		n, err := c.constructAttribute(v)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(n), nil
	case *xq.TextConstructor:
		s, err := c.eval(v.Content)
		if err != nil {
			return nil, err
		}
		var b treeBuilder
		return xdm.Singleton(b.textTree(joinAtoms(s))), nil
	case *xq.DocConstructor:
		s, err := c.eval(v.Content)
		if err != nil {
			return nil, err
		}
		var b treeBuilder
		d, err := b.docTree(s)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(d), nil
	case *xq.FunCall:
		return c.evalFunCall(v)
	case *xq.XRPCExpr:
		return c.evalXRPC(v)
	}
	return nil, unsupported(e)
}

func (c *walker) evalFor(v *xq.ForExpr) (xdm.Sequence, error) {
	in, err := c.eval(v.In)
	if err != nil {
		return nil, err
	}
	// Bind an empty memo frame for each operand memoSites finds in v that
	// no loop around v owns already.
	take := func(e xq.Expr) {
		if c.memo(e) == nil {
			c = c.bind("", nil)
			c.vars.memo = &memoOp{expr: e}
		}
	}
	for _, spec := range v.OrderBy {
		memoSites(spec.Key, v.Var, nil, take)
	}
	memoSites(v.Return, v.Var, nil, take)
	if x, ok := v.Return.(*xq.XRPCExpr); ok && len(v.OrderBy) == 0 && c.eng.Remote != nil {
		return c.evalRemoteLoop(v, x, in)
	}
	results := make([]xdm.Sequence, 0, len(in))
	var keys []xdm.Atomic
	for _, it := range in {
		ic := c.bind(v.Var, xdm.Singleton(it))
		for _, spec := range v.OrderBy {
			ks, err := ic.eval(spec.Key)
			if err != nil {
				return nil, err
			}
			key, err := orderKey(ks)
			if err != nil {
				return nil, err
			}
			keys = append(keys, key)
		}
		res, err := ic.eval(v.Return)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	var perm []int32
	if len(v.OrderBy) > 0 {
		if perm, err = sortOrdered(keys, v.OrderBy); err != nil {
			return nil, err
		}
	}
	out := xdm.Sequence{}
	for i := range results {
		if perm != nil {
			i = int(perm[i])
		}
		out = append(out, results[i]...)
	}
	return out, nil
}

func (c *walker) evalXRPC(x *xq.XRPCExpr) (xdm.Sequence, error) {
	if c.eng.Remote == nil {
		return nil, errNoRemote
	}
	target, err := c.rpcTarget(x)
	if err != nil {
		return nil, err
	}
	params, err := c.rpcParams(x)
	if err != nil {
		return nil, err
	}
	return c.eng.callRemote(target, x, params)
}

// evalRemoteLoop evaluates a for-loop whose body is exactly a remote call.
// A loop-invariant target ships every iteration in one Bulk RPC; a target
// that varies per iteration (`for $p in $peers return execute at {$p}
// {...}`) scatter-gathers, one Bulk RPC per distinct peer.
func (c *walker) evalRemoteLoop(v *xq.ForExpr, x *xq.XRPCExpr, in xdm.Sequence) (xdm.Sequence, error) {
	if len(in) == 0 {
		return xdm.EmptySequence, nil
	}
	iterations := make([][]xdm.Sequence, len(in))
	if !xq.Reads(x.Target, v.Var) {
		target, err := c.rpcTarget(x)
		if err != nil {
			return nil, err
		}
		for i, it := range in {
			// A binding that is only looked up, never evaluated in, stays
			// on the stack.
			if iterations[i], err = c.bind(v.Var, xdm.Singleton(it)).rpcParams(x); err != nil {
				return nil, err
			}
		}
		return c.eng.bulk(nil, target, x, iterations)
	}
	targets := make([]string, len(in))
	for i, it := range in {
		ic := c.bind(v.Var, xdm.Singleton(it))
		var err error
		if targets[i], err = ic.rpcTarget(x); err != nil {
			return nil, err
		}
		if iterations[i], err = ic.rpcParams(x); err != nil {
			return nil, err
		}
	}
	return c.eng.scatter(nil, x, targets, iterations)
}

// rpcTarget evaluates a remote call's target to its peer name.
func (c *walker) rpcTarget(x *xq.XRPCExpr) (string, error) {
	s, err := c.eval(x.Target)
	if err != nil {
		return "", err
	}
	return singletonString(s, "execute at target")
}

// rpcParams looks up the values a remote call ships.
func (c *walker) rpcParams(x *xq.XRPCExpr) ([]xdm.Sequence, error) {
	params := make([]xdm.Sequence, len(x.Params))
	for i, p := range x.Params {
		val, ok := c.lookup(p.Ref)
		if !ok {
			return nil, unboundParam(p.Ref)
		}
		params[i] = val
	}
	return params, nil
}

func (c *walker) evalQuantified(v *xq.QuantifiedExpr) (xdm.Sequence, error) {
	in, err := c.eval(v.In)
	if err != nil {
		return nil, err
	}
	for _, it := range in {
		s, err := c.bind(v.Var, xdm.Singleton(it)).eval(v.Satisfies)
		if err != nil {
			return nil, err
		}
		b, ok := s.EffectiveBoolean()
		if !ok {
			return nil, fmt.Errorf("eval: invalid effective boolean in quantified expression")
		}
		if v.Every && !b {
			return xdm.Singleton(xdm.NewBoolean(false)), nil
		}
		if !v.Every && b {
			return xdm.Singleton(xdm.NewBoolean(true)), nil
		}
	}
	return xdm.Singleton(xdm.NewBoolean(v.Every)), nil
}

func (c *walker) evalTypeswitch(v *xq.TypeswitchExpr) (xdm.Sequence, error) {
	op, err := c.eval(v.Operand)
	if err != nil {
		return nil, err
	}
	for _, cs := range v.Cases {
		if checkSeqType(op, cs.Type) == nil {
			cc := c
			if cs.Var != "" {
				cc = c.bind(cs.Var, op)
			}
			return cc.eval(cs.Return)
		}
	}
	cc := c
	if v.DefaultVar != "" {
		cc = c.bind(v.DefaultVar, op)
	}
	return cc.eval(v.Default)
}

func (c *walker) evalLogic(v *xq.LogicExpr) (xdm.Sequence, error) {
	l, err := c.eval(v.Left)
	if err != nil {
		return nil, err
	}
	lb, ok := l.EffectiveBoolean()
	if !ok {
		return nil, fmt.Errorf("eval: invalid effective boolean value")
	}
	if v.And && !lb {
		return xdm.Singleton(xdm.NewBoolean(false)), nil
	}
	if !v.And && lb {
		return xdm.Singleton(xdm.NewBoolean(true)), nil
	}
	r, err := c.eval(v.Right)
	if err != nil {
		return nil, err
	}
	rb, ok := r.EffectiveBoolean()
	if !ok {
		return nil, fmt.Errorf("eval: invalid effective boolean value")
	}
	return xdm.Singleton(xdm.NewBoolean(rb)), nil
}

func (c *walker) evalCompare(v *xq.CompareExpr) (xdm.Sequence, error) {
	l, lm, err := c.operand(v.Left)
	if err != nil {
		return nil, err
	}
	r, rm, err := c.operand(v.Right)
	if err != nil {
		return nil, err
	}
	if v.Op.IsNodeComp() {
		return nodeCompare(v.Op, l, r)
	}
	return xdm.Singleton(xdm.NewBoolean(generalCompareAtoms(v.Op, lm.atomize(l), rm.atomize(r), lm, rm))), nil
}

func (c *walker) evalArith(v *xq.ArithExpr) (xdm.Sequence, error) {
	l, err := c.eval(v.Left)
	if err != nil {
		return nil, err
	}
	r, err := c.eval(v.Right)
	if err != nil {
		return nil, err
	}
	return arithCombine(v.Op, l.Atomize(), r.Atomize())
}

func (c *walker) evalNodeSet(v *xq.NodeSetExpr) (xdm.Sequence, error) {
	l, err := c.eval(v.Left)
	if err != nil {
		return nil, err
	}
	r, err := c.eval(v.Right)
	if err != nil {
		return nil, err
	}
	return nodeSetCombine(v.Op, l, r)
}

func (c *walker) evalFunCall(v *xq.FunCall) (xdm.Sequence, error) {
	args := make([]xdm.Sequence, len(v.Args))
	for i, a := range v.Args {
		s, err := c.eval(a)
		if err != nil {
			return nil, err
		}
		args[i] = s
	}
	if f, ok := c.funcs[fmt.Sprintf("%s/%d", v.Name, len(v.Args))]; ok {
		return c.callDeclared(f, args)
	}
	name := strings.TrimPrefix(v.Name, "fn:")
	if bi, ok := builtins[name]; ok {
		if bi.minArgs > len(args) || (bi.maxArgs >= 0 && len(args) > bi.maxArgs) {
			return nil, fmt.Errorf("eval: %s expects %d..%d arguments, got %d",
				v.Name, bi.minArgs, bi.maxArgs, len(args))
		}
		return bi.fn(&c.context, args)
	}
	return nil, fmt.Errorf("eval: unknown function %s#%d", v.Name, len(v.Args))
}

func (c *walker) constructElement(v *xq.ElemConstructor) (*xdm.Node, error) {
	var b treeBuilder
	if err := c.buildElement(&b, v, false); err != nil {
		return nil, err
	}
	return b.finish(0), nil
}

// buildElement describes element constructor v to the builder: its name,
// then its content in order — attribute constructors, nested element and
// text constructors (built in place), and enclosed expressions.
func (c *walker) buildElement(b *treeBuilder, v *xq.ElemConstructor, nested bool) error {
	if err := c.stop.check(); err != nil {
		return err
	}
	name := v.Name
	if v.NameExpr != nil {
		s, err := c.eval(v.NameExpr)
		if err != nil {
			return err
		}
		if name, err = singletonString(s, "element name"); err != nil {
			return err
		}
	}
	b.open(name, nested)
	for _, ce := range v.Content {
		switch x := ce.(type) {
		case *xq.AttrConstructor:
			name, value, err := c.attrParts(x)
			if err != nil {
				return err
			}
			if err := b.constructedAttr(name, value); err != nil {
				return err
			}
		case *xq.ElemConstructor:
			if err := c.buildElement(b, x, true); err != nil {
				return err
			}
		case *xq.TextConstructor:
			s, err := c.eval(x.Content)
			if err != nil {
				return err
			}
			b.text(joinAtoms(s))
		default:
			s, err := c.eval(ce)
			if err != nil {
				return err
			}
			if err := b.content(s); err != nil {
				return err
			}
		}
	}
	b.close()
	return nil
}

func (c *walker) constructAttribute(v *xq.AttrConstructor) (*xdm.Node, error) {
	name, value, err := c.attrParts(v)
	if err != nil {
		return nil, err
	}
	return xdm.NewAttr(name, value), nil
}

// attrParts evaluates an attribute constructor's name and value.
func (c *walker) attrParts(v *xq.AttrConstructor) (name, value string, err error) {
	name = v.Name
	if v.NameExpr != nil {
		s, err := c.eval(v.NameExpr)
		if err != nil {
			return "", "", err
		}
		if name, err = singletonString(s, "attribute name"); err != nil {
			return "", "", err
		}
	}
	var parts []string
	for _, ve := range v.Value {
		s, err := c.eval(ve)
		if err != nil {
			return "", "", err
		}
		parts = append(parts, joinAtoms(s))
	}
	return name, strings.Join(parts, ""), nil
}

// memoOp is a memo frame's operand, atoms and `=` index.
type memoOp struct {
	expr xq.Expr
	atomMemo
}

// memo returns the memo frame of operand e around c, or nil.
func (c *walker) memo(e xq.Expr) *frame {
	for f := c.vars; f != nil; f = f.next {
		if f.memo != nil && f.memo.expr == e {
			return f
		}
	}
	return nil
}

// memoSites calls take on each pinned comparison operand in e that reads
// neither loopVar nor a variable of bound, those bound inside the loop
// around e. It does not enter a shipped body.
func memoSites(e xq.Expr, loopVar string, bound *scope, take func(xq.Expr)) {
	if v, ok := e.(*xq.CompareExpr); ok {
		for _, op := range [...]xq.Expr{v.Left, v.Right} {
			if pinned(op, func(n string) bool { _, in := bound.lookup(n); return !in && n != loopVar }) {
				take(op)
			}
		}
	}
	xq.Slots(e, func(s xq.Slot) {
		if s.Remote == nil {
			b := bound
			if s.Var != nil {
				b = &scope{name: *s.Var, next: bound}
			}
			memoSites(*s.Expr, loopVar, b, take)
		}
	})
}

// operand evaluates comparison operand e, through its memo, also returned,
// when a loop run around c owns one.
func (c *walker) operand(e xq.Expr) (xdm.Sequence, *atomMemo, error) {
	m := c.memo(e)
	if m == nil || m.val == nil {
		s, err := c.eval(e)
		if m == nil || err != nil {
			return s, nil, err
		}
		m.val = filled(s)
	}
	return m.val, &m.memo.atomMemo, nil
}

// evalPath evaluates a (possibly multi-step) path expression. Each step maps
// the current node sequence through its axis and node test, filters by
// predicates, and re-establishes distinct document order — the XPath
// semantics whose preservation under node shipping is the core concern of
// the paper.
func (c *walker) evalPath(pe *xq.PathExpr) (xdm.Sequence, error) {
	var cur xdm.Sequence
	switch {
	case pe.Input != nil:
		s, err := c.eval(pe.Input)
		if err != nil {
			return nil, err
		}
		cur = s
	case c.item != nil:
		cur = xdm.Singleton(c.item)
	default:
		return nil, fmt.Errorf("eval: relative path with undefined context item")
	}
	// Node steps work on two scratch buffers that ping-pong between "current
	// context nodes" and "gather target", so a multi-step path allocates at
	// most two node slices total instead of one per context node per step.
	var curNodes, spare []*xdm.Node
	haveNodes := false
	for _, st := range pe.Steps {
		if st.Filter {
			if haveNodes {
				cur = xdm.NodeSeq(curNodes)
				haveNodes = false
			}
			// A copy: a variable may hold the sequence.
			filtered, err := filterPreds(c, slices.Clone(cur), st.Preds, false)
			if err != nil {
				return nil, err
			}
			cur = filtered
			continue
		}
		nodes := curNodes
		if !haveNodes {
			var ok bool
			nodes, ok = cur.Nodes()
			if !ok {
				return nil, fmt.Errorf("eval: path step %s::%s applied to atomic value", st.Axis, st.Test)
			}
		}
		gathered, err := c.evalStep(nodes, st, spare[:0])
		if err != nil {
			return nil, err
		}
		spare = nodes[:0] // the consumed context buffer becomes the next target
		curNodes, haveNodes = gathered, true
	}
	if haveNodes {
		cur = xdm.NodeSeq(curNodes)
	}
	return cur, nil
}

// evalStep maps one non-filter path step over its context nodes: per context
// node, gather the axis candidates and apply the step predicates within that
// segment, then re-establish distinct document order across segments. dst is
// the gather buffer (evalPath passes its ping-pong scratch slice). A single
// context node yields document-ordered, duplicate-free results on every axis;
// only unions across context nodes can disturb order (and SortDocOrder
// detects ordered unions in O(n)).
func (c *walker) evalStep(nodes []*xdm.Node, st *xq.Step, dst []*xdm.Node) ([]*xdm.Node, error) {
	gathered := dst
	for _, n := range nodes {
		start := len(gathered)
		var err error
		if gathered, err = gatherAxis(gathered, n, st.Axis, st.Test, c.stop); err != nil {
			return nil, err
		}
		if len(st.Preds) > 0 {
			seg, err := filterPreds(c, gathered[start:], st.Preds, st.Axis.Reverse())
			if err != nil {
				return nil, err
			}
			gathered = gathered[:start+len(seg)]
		}
	}
	if len(nodes) > 1 {
		gathered = xdm.SortDocOrder(gathered)
	}
	return gathered, nil
}

// filterPreds applies predicates to items: a step's candidates for one
// context node, in document order, or a filter expression's sequence. A
// predicate evaluating to a number selects by position; otherwise its
// effective boolean value filters. Positions count from the context node
// outward, so against document order on a reverse axis. items is
// compacted in place and the result aliases it.
func filterPreds[T xdm.Item](c *walker, items []T, preds []xq.Expr, reverse bool) ([]T, error) {
	for _, pred := range preds {
		kept := items[:0]
		size := len(items)
		for i, it := range items {
			pos := i + 1
			if reverse {
				pos = size - i
			}
			s, err := c.withItem(it, pos, size).eval(pred)
			if err != nil {
				return nil, err
			}
			if len(s) == 1 {
				if a, isAtom := s[0].(xdm.Atomic); isAtom && a.IsNumeric() {
					if int(a.Number()) == pos {
						kept = append(kept, it)
					}
					continue
				}
			}
			b, ok := s.EffectiveBoolean()
			if !ok {
				return nil, fmt.Errorf("eval: invalid predicate value")
			}
			if b {
				kept = append(kept, it)
			}
		}
		items = kept
	}
	return items, nil
}
