package eval

// The compiler: one pass over a normalized query lowers every expression
// into a chain of pre-resolved closures (compiled.go holds their runtime).
// The lowering rules, also documented in DESIGN.md:
//
//   - Every expression compiles once, to an eager form that appends its
//     whole value to a caller-supplied sequence (cexpr). It allocates no
//     closure or result sequence per evaluation; intermediate values live in
//     the run's scratch buffers.
//   - A function returning item()* also gets a streamed form (cemit) that
//     reuses those closures and emits per top-level part (compileTop).
//   - Variables resolve to frame slots at compile time. A for or quantifier
//     variable is one item and lives in an item slot, so binding it per
//     iteration allocates nothing, and a path rooted at it steps straight
//     from the node.
//   - Declared function calls bind to their compiled bodies at compile time.
//   - Constant subexpressions (literals and operator trees over them) fold
//     to their value: a literal directly, any other constant tree by
//     compiling it and running it once on a bare frame. A folding *error*
//     becomes a deferred-error closure so a constant fault inside a
//     never-taken branch still only surfaces if that branch runs.
//   - Path steps compile to direct scans with predicates fused into the
//     scan; provably boolean-valued predicates (comparisons, logic, boolean
//     builtins) skip the numeric-position test entirely.
//   - Comparisons specialize by static operand kind: a constant operand is
//     atomized once at compile time.
//   - A for loop compiles its body once. A comparison operand invariant in
//     loops around it fills, on first use, a memo slot the outermost such
//     loop empties in its prologue (operand). Order-by loops sort with the
//     shared comparator (sortOrdered).
//   - Constructors describe their tree to the shared builder (treeBuilder),
//     nested direct constructors in place.
//   - A remote call evaluates its target in the frame and reads its
//     parameters from slots, then hands them to the Engine routines
//     (callRemote, bulk, scatter); a loop whose body is a remote call
//     collects every iteration into one Bulk RPC or scatter.
//
// Every node compiles at most once, so compiling is linear in the query,
// and every construct compiles.

import (
	"errors"
	"fmt"
	"strings"

	"distxq/internal/trace"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// scope is the compile-time environment: a linked list of visible bindings,
// innermost first. item marks a binding held in an item slot (cframe.items)
// rather than a sequence slot; depth counts the bindings down to this one; a
// for variable's binding carries its loop.
type scope struct {
	name  string
	slot  int
	item  bool
	depth int
	loop  *cloop
	next  *scope
}

// push returns sc extended by a binding of name to slot.
func (sc *scope) push(name string, slot int, item bool) *scope {
	b := &scope{name: name, slot: slot, item: item, depth: 1, next: sc}
	if sc != nil {
		b.depth = sc.depth + 1
	}
	return b
}

func (s *scope) lookup(name string) (*scope, bool) {
	for b := s; b != nil; b = b.next {
		if b.name == name {
			return b, true
		}
	}
	return nil, false
}

// cloop is a compiled for loop's memo slots, which its prologue empties.
type cloop struct{ memos []int }

// itemVar returns the item slot e reads when e is a reference to a for or
// quantifier variable.
func itemVar(e xq.Expr, sc *scope) (int, bool) {
	if ref, ok := e.(*xq.VarRef); ok {
		if b, ok := sc.lookup(ref.Name); ok && b.item {
			return b.slot, true
		}
	}
	return 0, false
}

// compiler holds per-query compilation state shared across function bodies.
type compiler struct {
	funcs  map[funcKey]*cfunc
	nholes int
}

// fnCompiler allocates the slots of one compilation unit (the query body or
// one declared function).
type fnCompiler struct {
	cp     *compiler
	nslots int
	nitems int
}

func (fc *fnCompiler) alloc() int {
	n := fc.nslots
	fc.nslots++
	return n
}

func (fc *fnCompiler) allocItem() int {
	n := fc.nitems
	fc.nitems++
	return n
}

// funcKey identifies a declared function: xq.Normalize rejects two
// declarations of one name and arity.
type funcKey struct {
	name  string
	arity int
}

var (
	trueSeq  = xdm.Singleton(xdm.NewBoolean(true))
	falseSeq = xdm.Singleton(xdm.NewBoolean(false))
)

func boolSeq(b bool) xdm.Sequence {
	if b {
		return trueSeq
	}
	return falseSeq
}

// CompileQuery lowers a query into a Program and caches it on the query, so
// every engine executing the same (shared, read-only) query object reuses
// one compilation. The query is normalized first; compilation itself cannot
// fail — a shape the evaluator rejects compiles to its fault.
func CompileQuery(q *xq.Query) (*Program, error) {
	if err := xq.Normalize(q); err != nil {
		return nil, err
	}
	if p, ok := q.CompiledArtifact().(*Program); ok {
		return p, nil
	}
	p := lower(q)
	q.SetCompiledArtifact(p)
	return p, nil
}

// lower compiles normalized q into a Program without attaching it.
func lower(q *xq.Query) *Program {
	cp := &compiler{}
	// Pre-register every declared function so recursive and mutually
	// recursive bodies resolve their callees to the final cfunc pointers.
	if len(q.Funcs) > 0 {
		cp.funcs = make(map[funcKey]*cfunc, len(q.Funcs))
	}
	cfs := make([]cfunc, len(q.Funcs))
	for i, fd := range q.Funcs {
		cfs[i].decl = fd
		cp.funcs[funcKey{fd.Name, len(fd.Params)}] = &cfs[i]
	}
	for i := range cfs {
		cf := &cfs[i]
		fc := &fnCompiler{cp: cp}
		var sc *scope
		for _, p := range cf.decl.Params {
			sc = sc.push(p.Name, fc.alloc(), false)
		}
		if ret := cf.decl.Return; ret.Occur == xq.OccurStar && (ret.Item == "item()" || ret.Item == "") {
			cf.body, cf.emit = fc.compileTop(cf.decl.Body, sc)
		} else {
			cf.body = fc.compile(cf.decl.Body, sc)
		}
		cf.nslots, cf.nitems = fc.nslots, fc.nitems
	}
	fc := &fnCompiler{cp: cp}
	p := &Program{funcs: cp.funcs}
	p.body = fc.compile(q.Body, nil)
	p.nslots, p.nitems, p.nholes = fc.nslots, fc.nitems, cp.nholes
	return p
}

// CompileTraced is CompileQuery recorded as a "compile" span under parent.
func CompileTraced(q *xq.Query, parent trace.SpanRef) (*Program, error) {
	sp := parent.Child("compile")
	p, err := CompileQuery(q)
	sp.EndErr(err)
	return p, err
}

// boolc is the eager form of a boolean-valued expression.
func boolc(cb cbool) cexpr {
	return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
		b, err := cb(f)
		if err != nil {
			return nil, err
		}
		return appendSeq(dst, boolSeq(b)), nil
	}
}

// pairc evaluates l and then r, when not nil, into scratch and appends
// what combine makes of their values.
func pairc(l, r cexpr, combine func(f *cframe, dst, ls, rs xdm.Sequence) (xdm.Sequence, error)) cexpr {
	return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
		if err := f.ctx.stop.check(); err != nil {
			return nil, err
		}
		ls, err := l(f, f.sc.seqs.take())
		if err != nil {
			return nil, err
		}
		var rs xdm.Sequence
		if r != nil {
			if rs, err = r(f, f.sc.seqs.take()); err != nil {
				return nil, err
			}
		}
		if dst, err = combine(f, dst, ls, rs); err != nil {
			return nil, err
		}
		f.sc.seqs.give(ls)
		if r != nil {
			f.sc.seqs.give(rs)
		}
		return dst, nil
	}
}

func constc(s xdm.Sequence) cexpr {
	return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
		if err := f.ctx.stop.check(); err != nil {
			return nil, err
		}
		return appendSeq(dst, s), nil
	}
}

func errc(err error) cexpr {
	return func(f *cframe, _ xdm.Sequence) (xdm.Sequence, error) {
		if e := f.ctx.stop.check(); e != nil {
			return nil, e
		}
		return nil, err
	}
}

// fold evaluates constant expression e at compile time: a literal is its
// value, and any other constant tree compiles and runs once on a bare
// frame. isConst guarantees the tree touches no engine, documents, focus or
// variables, so the value is context-independent.
func (fc *fnCompiler) fold(e xq.Expr) (xdm.Sequence, error) {
	if l, ok := e.(*xq.Literal); ok {
		return xdm.Singleton(l.Val), nil
	}
	bare := &fnCompiler{cp: fc.cp}
	ce := bare.lowerExpr(e, nil)
	return ce(newFrame(&context{}, bare.nslots, bare.nitems, nil), nil)
}

// isConst reports whether e is a constant subexpression the folder may
// evaluate at compile time: literal operator trees and the nullary
// true()/false() builtins (unless shadowed by a declared function). Node
// comparisons are excluded — their operands cannot be constant anyway — and
// so is everything touching documents, construction, focus or variables.
func (fc *fnCompiler) isConst(e xq.Expr) bool {
	switch v := e.(type) {
	case *xq.Literal:
		return v.Hole == 0 // a hole's value is the run's
	case *xq.SeqExpr, *xq.UnaryExpr, *xq.ArithExpr, *xq.LogicExpr:
		for _, ch := range xq.Children(e) {
			if !fc.isConst(ch) {
				return false
			}
		}
		return true
	case *xq.CompareExpr:
		if v.Op.IsNodeComp() {
			return false
		}
		return fc.isConst(v.Left) && fc.isConst(v.Right)
	case *xq.FunCall:
		if len(v.Args) != 0 {
			return false
		}
		switch strings.TrimPrefix(v.Name, "fn:") {
		case "true", "false":
		default:
			return false
		}
		_, declared := fc.cp.funcs[funcKey{v.Name, 0}]
		return !declared
	}
	return false
}

// compile lowers one expression to its eager compiled form, folding it
// when it is constant. Every returned closure begins with the shared
// deadline check, so evaluation hits stopCheck at ≤stopCheckEvery-node
// granularity.
func (fc *fnCompiler) compile(e xq.Expr, sc *scope) cexpr {
	if e != nil && fc.isConst(e) {
		s, err := fc.fold(e)
		if err != nil {
			return errc(err)
		}
		return constc(s)
	}
	return fc.lowerExpr(e, sc)
}

// lowerExpr is compile without folding e itself.
func (fc *fnCompiler) lowerExpr(e xq.Expr, sc *scope) cexpr {
	switch v := e.(type) {
	case nil:
		return constc(xdm.EmptySequence)
	case *xq.Literal:
		if v.Hole == 0 {
			return constc(xdm.Singleton(v.Val))
		}
		h, own := fc.hole(v), xdm.Singleton(v.Val)
		return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			return appendSeq(dst, f.hole(h, own)), nil
		}
	case *xq.VarRef:
		b, ok := sc.lookup(v.Name)
		if !ok {
			return errc(fmt.Errorf("eval: unbound variable $%s", v.Name))
		}
		slot := b.slot
		if b.item {
			return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
				if err := f.ctx.stop.check(); err != nil {
					return nil, err
				}
				return append(dst, f.items[slot]), nil
			}
		}
		return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			return appendSeq(dst, f.slots[slot]), nil
		}
	case *xq.ContextItem:
		return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			if f.item == nil {
				return nil, fmt.Errorf("eval: context item is undefined")
			}
			return append(dst, f.item), nil
		}
	case *xq.RootExpr:
		return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			n, ok := f.item.(*xdm.Node)
			if !ok {
				return nil, fmt.Errorf("eval: '/' requires a node context item")
			}
			return append(dst, n.RootNode()), nil
		}
	case *xq.SeqExpr:
		parts := make([]cexpr, len(v.Items))
		for i, it := range v.Items {
			parts[i] = fc.compile(it, sc)
		}
		return seqc(parts)
	case *xq.LetExpr:
		bind := fc.compile(v.Bind, sc)
		slot := fc.alloc()
		body := fc.compile(v.Return, sc.push(v.Var, slot, false))
		return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			s, err := bind(f, nil)
			if err != nil {
				return nil, err
			}
			f.slots[slot] = s
			return body(f, dst)
		}
	case *xq.IfExpr:
		cond := fc.compileCond(v.Cond, sc, "eval: invalid effective boolean value in if condition")
		then := fc.compile(v.Then, sc)
		els := fc.compile(v.Else, sc)
		return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			b, err := cond(f)
			if err != nil {
				return nil, err
			}
			if b {
				return then(f, dst)
			}
			return els(f, dst)
		}
	case *xq.ForExpr:
		return fc.compileFor(v, sc).run
	case *xq.QuantifiedExpr:
		in := fc.compile(v.In, sc)
		slot := fc.allocItem()
		sat := fc.compileCond(v.Satisfies, sc.push(v.Var, slot, true),
			"eval: invalid effective boolean in quantified expression")
		every := v.Every
		return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			s, err := in(f, f.sc.seqs.take())
			if err != nil {
				return nil, err
			}
			res := every
			for _, it := range s {
				f.items[slot] = it
				b, err := sat(f)
				if err != nil {
					return nil, err
				}
				if b != every {
					res = b
					break
				}
			}
			f.sc.seqs.give(s)
			return appendSeq(dst, boolSeq(res)), nil
		}
	case *xq.TypeswitchExpr:
		return fc.compileTypeswitch(v, sc)
	case *xq.LogicExpr:
		return boolc(fc.compileBool(e, sc))
	case *xq.CompareExpr:
		if v.Op.IsNodeComp() {
			l, _ := fc.operand(v.Left, sc)
			r, _ := fc.operand(v.Right, sc)
			op := v.Op
			return pairc(l, r, func(_ *cframe, dst, ls, rs xdm.Sequence) (xdm.Sequence, error) {
				res, err := nodeCompare(op, ls, rs)
				return appendSeq(dst, res), err
			})
		}
		return boolc(fc.compileGeneralCompare(v, sc))
	case *xq.ArithExpr:
		l := fc.compile(v.Left, sc)
		r := fc.compile(v.Right, sc)
		op := v.Op
		return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			la, err := f.atomsOf(l)
			if err != nil {
				return nil, err
			}
			ra, err := f.atomsOf(r)
			if err != nil {
				return nil, err
			}
			res, err := arithCombine(op, la, ra)
			if err != nil {
				return nil, err
			}
			f.sc.atoms.give(la)
			f.sc.atoms.give(ra)
			return appendSeq(dst, res), nil
		}
	case *xq.UnaryExpr:
		return pairc(fc.compile(v.Operand, sc), nil, func(f *cframe, dst, s, _ xdm.Sequence) (xdm.Sequence, error) {
			atoms := appendAtoms(f.sc.atoms.take(), s)
			defer f.sc.atoms.give(atoms)
			switch {
			case len(atoms) == 0:
				return dst, nil
			case len(atoms) != 1:
				return nil, fmt.Errorf("eval: unary minus over a sequence")
			case atoms[0].T == xdm.TInteger:
				return append(dst, xdm.NewInteger(-atoms[0].I)), nil
			}
			return append(dst, xdm.NewDouble(-atoms[0].Number())), nil
		})
	case *xq.NodeSetExpr:
		op := v.Op
		return pairc(fc.compile(v.Left, sc), fc.compile(v.Right, sc), func(_ *cframe, dst, ls, rs xdm.Sequence) (xdm.Sequence, error) {
			res, err := nodeSetCombine(op, ls, rs)
			return appendSeq(dst, res), err
		})
	case *xq.PathExpr:
		return pathc(fc.compilePath(v, sc))
	case *xq.FunCall:
		return fc.compileFunCall(v, sc)
	case *xq.ElemConstructor:
		ce := fc.compileElem(v, sc)
		return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
			el, err := f.constructElem(ce) // buildElem checks the deadline
			if err != nil {
				return nil, err
			}
			return append(dst, el), nil
		}
	case *xq.AttrConstructor:
		ca := fc.compileAttr(v, sc)
		return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			name, value, err := f.attrParts(ca)
			if err != nil {
				return nil, err
			}
			return append(dst, xdm.NewAttr(name, value)), nil
		}
	case *xq.TextConstructor:
		return pairc(fc.compile(v.Content, sc), nil, func(f *cframe, dst, s, _ xdm.Sequence) (xdm.Sequence, error) {
			return append(dst, f.sc.builder().textTree(joinAtoms(s))), nil
		})
	case *xq.DocConstructor:
		return pairc(fc.compile(v.Content, sc), nil, func(f *cframe, dst, s, _ xdm.Sequence) (xdm.Sequence, error) {
			d, err := f.sc.builder().docTree(s)
			return append(dst, d), err
		})
	case *xq.XRPCExpr:
		return rpcExpr(v, fc.compileRPC(v, sc))
	default:
		return errc(unsupported(e))
	}
}

// crpc is a compiled remote call's argument side: its target, and the
// binding each parameter ships — a for variable as the singleton of its
// item — or, for a parameter naming no binding, its fault.
type crpc struct {
	targetExpr cexpr
	binds      []*scope
	unbound    error
}

func (fc *fnCompiler) compileRPC(x *xq.XRPCExpr, sc *scope) *crpc {
	c := &crpc{targetExpr: fc.compile(x.Target, sc)}
	for _, p := range x.Params {
		b, ok := sc.lookup(p.Ref)
		if !ok {
			c.unbound = unboundParam(p.Ref)
			break
		}
		c.binds = append(c.binds, b)
	}
	return c
}

// rpcExpr is the eager form of remote call x, whose argument side is call.
func rpcExpr(x *xq.XRPCExpr, call *crpc) cexpr {
	return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
		if err := f.ctx.stop.check(); err != nil {
			return nil, err
		}
		if f.ctx.eng.Remote == nil {
			return nil, errNoRemote
		}
		target, err := call.target(f)
		if err != nil {
			return nil, err
		}
		params, err := call.params(f)
		if err != nil {
			return nil, err
		}
		res, err := f.ctx.eng.callRemote(target, x, params)
		if err != nil {
			return nil, err
		}
		return appendSeq(dst, res), nil
	}
}

// target evaluates the call's target to its peer name.
func (c *crpc) target(f *cframe) (string, error) {
	s, err := c.targetExpr(f, f.sc.seqs.take())
	if err != nil {
		return "", err
	}
	t, err := singletonString(s, "execute at target")
	f.sc.seqs.give(s)
	return t, err
}

// params reads the values the call ships from the frame.
func (c *crpc) params(f *cframe) ([]xdm.Sequence, error) {
	if c.unbound != nil {
		return nil, c.unbound
	}
	params := make([]xdm.Sequence, len(c.binds))
	for i, b := range c.binds {
		if b.item {
			params[i] = xdm.Singleton(f.items[b.slot])
		} else {
			params[i] = f.slots[b.slot]
		}
	}
	return params, nil
}

// compileRemoteLoop lowers a loop over item slot slot whose body is remote
// call x, with argument side call: its input ships as one Bulk RPC, or as a
// scatter (one Bulk RPC per distinct peer) when the target reads the loop
// variable.
func compileRemoteLoop(v *xq.ForExpr, x *xq.XRPCExpr, call *crpc, slot int) func(f *cframe, dst, in xdm.Sequence) (xdm.Sequence, error) {
	varies := xq.Reads(x.Target, v.Var)
	return func(f *cframe, dst, in xdm.Sequence) (xdm.Sequence, error) {
		if len(in) == 0 {
			return dst, nil
		}
		iterations := make([][]xdm.Sequence, len(in))
		var targets []string
		var target string
		var err error
		if varies {
			targets = make([]string, len(in))
		} else if target, err = call.target(f); err != nil {
			return nil, err
		}
		for i, it := range in {
			f.items[slot] = it
			if varies {
				if targets[i], err = call.target(f); err != nil {
					return nil, err
				}
			}
			if iterations[i], err = call.params(f); err != nil {
				return nil, err
			}
		}
		if !varies {
			return f.ctx.eng.bulk(dst, target, x, iterations)
		}
		return f.ctx.eng.scatter(dst, x, targets, iterations)
	}
}

// cfor is a compiled FLWOR loop: its input, the item slot its variable
// binds, the memo slots its prologue empties, its order keys, its body, and
// for a body that is a remote call without order by the Bulk RPC or scatter
// form. Such a loop decides at *runtime* whether a remote caller is
// configured — the same Program may run on originator engines (Bulk RPC or
// scatter dispatch) and on engines without a caller (the plain loop runs and
// the body's execute-at faults); both share the call's compiled argument
// side.
type cfor struct {
	in     cexpr
	slot   int
	loop   cloop
	keys   []cexpr
	specs  []xq.OrderSpec
	body   cexpr
	remote func(f *cframe, dst, in xdm.Sequence) (xdm.Sequence, error)
}

func (fc *fnCompiler) compileFor(v *xq.ForExpr, sc *scope) *cfor {
	c := &cfor{in: fc.compile(v.In, sc), slot: fc.allocItem(), specs: v.OrderBy}
	vsc := sc.push(v.Var, c.slot, true)
	vsc.loop = &c.loop
	c.keys = make([]cexpr, len(v.OrderBy))
	for i, spec := range v.OrderBy {
		c.keys[i] = fc.compile(spec.Key, vsc)
	}
	if x, ok := v.Return.(*xq.XRPCExpr); ok && len(c.keys) == 0 {
		call := fc.compileRPC(x, vsc)
		c.body, c.remote = rpcExpr(x, call), compileRemoteLoop(v, x, call, c.slot)
	} else {
		c.body = fc.compile(v.Return, vsc)
	}
	return c
}

// run is the loop's eager form.
func (c *cfor) run(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
	s, err := f.loopInput(c.in, &c.loop)
	if err != nil {
		return nil, err
	}
	switch {
	case c.remote != nil && f.ctx.eng.Remote != nil:
		dst, err = c.remote(f, dst, s)
	case len(c.keys) > 0:
		dst, err = f.orderLoop(dst, s, c.slot, c.keys, c.specs, c.body)
	default:
		for _, it := range s {
			f.items[c.slot] = it
			if dst, err = c.body(f, dst); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}
	f.sc.seqs.give(s)
	return dst, nil
}

// emit is the streamed form of a loop without order by or a remote body:
// the input evaluates whole, as in run, and each iteration's value goes to
// emit as soon as its body has run. Pulling the input item by item would run
// early bodies before the input's own faults.
func (c *cfor) emit(f *cframe, emit func(xdm.Sequence) error) error {
	s, err := f.loopInput(c.in, &c.loop)
	if err != nil {
		return err
	}
	out := f.sc.seqs.take()
	for _, it := range s {
		f.items[c.slot] = it
		if out, err = c.body(f, out[:0]); err != nil {
			return err
		}
		if len(out) > 0 {
			if err := emit(out); err != nil {
				return err
			}
		}
	}
	f.sc.seqs.give(out)
	f.sc.seqs.give(s)
	return nil
}

// compileTypeswitch lowers a typeswitch: its operand, then per case, the
// default's last, the slot its variable binds and its return expression.
func (fc *fnCompiler) compileTypeswitch(v *xq.TypeswitchExpr, sc *scope) cexpr {
	op := fc.compile(v.Operand, sc)
	cases := make([]tcase, len(v.Cases)+1)
	rets := make([]cexpr, len(cases))
	for i := range cases {
		name, ret := v.DefaultVar, v.Default
		if i < len(v.Cases) {
			name, ret, cases[i].typ = v.Cases[i].Var, v.Cases[i].Return, v.Cases[i].Type
		}
		cases[i].slot = -1
		csc := sc
		if name != "" {
			cases[i].slot = fc.alloc()
			csc = sc.push(name, cases[i].slot, false)
		}
		rets[i] = fc.compile(ret, csc)
	}
	return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
		i, err := f.typeswitch(op, cases)
		if err != nil {
			return nil, err
		}
		return rets[i](f, dst)
	}
}

// compileFunCall lowers a function call. Argument evaluation always comes
// first, so argument faults win over unknown-function and arity faults.
func (fc *fnCompiler) compileFunCall(v *xq.FunCall, sc *scope) cexpr {
	argExprs := make([]cexpr, len(v.Args))
	for i, a := range v.Args {
		argExprs[i] = fc.compile(a, sc)
	}
	evalArgs := func(f *cframe) ([]xdm.Sequence, error) {
		args := make([]xdm.Sequence, len(argExprs))
		for i, ae := range argExprs {
			s, err := ae(f, nil)
			if err != nil {
				return nil, err
			}
			args[i] = s
		}
		return args, nil
	}
	name := v.Name
	nargs := len(v.Args)
	if cf, ok := fc.cp.funcs[funcKey{name, nargs}]; ok {
		return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			args, err := evalArgs(f)
			if err != nil {
				return nil, err
			}
			res, err := cf.call(f.ctx, f.sc, args, nil)
			if err != nil {
				return nil, err
			}
			return appendSeq(dst, res), nil
		}
	}
	short := strings.TrimPrefix(name, "fn:")
	bi, ok := builtins[short]
	var fault error
	switch {
	case !ok:
		fault = fmt.Errorf("eval: unknown function %s#%d", name, nargs)
	case bi.minArgs > nargs || (bi.maxArgs >= 0 && nargs > bi.maxArgs):
		fault = fmt.Errorf("eval: %s expects %d..%d arguments, got %d", name, bi.minArgs, bi.maxArgs, nargs)
	}
	if fault != nil {
		return func(f *cframe, _ xdm.Sequence) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			if _, err := evalArgs(f); err != nil {
				return nil, err
			}
			return nil, fault
		}
	}
	switch short {
	case "position":
		return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			if f.pos == 0 {
				return nil, fmt.Errorf("eval: position() outside a predicate")
			}
			return append(dst, xdm.NewInteger(int64(f.pos))), nil
		}
	case "last":
		return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			if f.size == 0 {
				return nil, fmt.Errorf("eval: last() outside a predicate")
			}
			return append(dst, xdm.NewInteger(int64(f.size))), nil
		}
	}
	// root, id and idref are the only remaining builtins that read the
	// dynamic focus: give them a context carrying the frame's.
	focus := readsFocus(v)
	fn := bi.fn
	return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
		if err := f.ctx.stop.check(); err != nil {
			return nil, err
		}
		args, err := evalArgs(f)
		if err != nil {
			return nil, err
		}
		ctx := f.ctx
		if focus {
			ctx = ctx.withItem(f.item, f.pos, f.size)
		}
		res, err := fn(ctx, args)
		if err != nil {
			return nil, err
		}
		return appendSeq(dst, res), nil
	}
}

// compilePath lowers a path's start and steps, cut from one slice; shared
// between the eager and streaming path forms. A path rooted at a for or
// quantifier variable starts at that item slot instead of evaluating its
// input.
func (fc *fnCompiler) compilePath(v *xq.PathExpr, sc *scope) *cpath {
	p := &cpath{slot: -1, steps: make([]cstep, len(v.Steps))}
	if slot, ok := itemVar(v.Input, sc); ok {
		p.slot = slot
	} else if v.Input != nil {
		p.input = fc.compile(v.Input, sc)
	}
	for i, st := range v.Steps {
		cs := &p.steps[i]
		cs.axis, cs.test, cs.filter = st.Axis, st.Test, st.Filter
		if len(st.Preds) > 0 {
			cs.preds = make([]cpred, len(st.Preds))
		}
		for k, pr := range st.Preds {
			if cs.preds[k].b = fc.compileBool(pr, sc); cs.preds[k].b == nil {
				cs.preds[k].gen = fc.compile(pr, sc)
			}
		}
	}
	return p
}

// compileBool lowers an expression to its boolean fast path when its value
// is provably a boolean singleton — general comparisons, logic, quantifiers
// and boolean-valued builtins (unless shadowed by a declared function).
// Returns nil otherwise. Provably-boolean predicates fuse into path scans
// without the numeric-position test, which a boolean value can never trigger.
func (fc *fnCompiler) compileBool(e xq.Expr, sc *scope) cbool {
	switch v := e.(type) {
	case *xq.CompareExpr:
		// Node comparisons are not boolean-valued: an empty operand yields
		// the empty sequence.
		if v.Op.IsNodeComp() {
			return nil
		}
		return fc.compileGeneralCompare(v, sc)
	case *xq.LogicExpr:
		l := fc.compileCond(v.Left, sc, "eval: invalid effective boolean value")
		r := fc.compileCond(v.Right, sc, "eval: invalid effective boolean value")
		and := v.And
		return func(f *cframe) (bool, error) {
			if err := f.ctx.stop.check(); err != nil {
				return false, err
			}
			lb, err := l(f)
			if err != nil {
				return false, err
			}
			if and && !lb {
				return false, nil
			}
			if !and && lb {
				return true, nil
			}
			return r(f)
		}
	case *xq.QuantifiedExpr:
		// Always a boolean singleton; wrap the compiled form below.
	case *xq.FunCall:
		if _, declared := fc.cp.funcs[funcKey{v.Name, len(v.Args)}]; declared {
			return nil
		}
		short := strings.TrimPrefix(v.Name, "fn:")
		switch short {
		case "not", "exists", "empty", "boolean", "true", "false",
			"contains", "starts-with", "deep-equal":
		default:
			return nil
		}
		bi := builtins[short]
		if bi.minArgs > len(v.Args) || (bi.maxArgs >= 0 && len(v.Args) > bi.maxArgs) {
			return nil // arity fault: keep the general path's error
		}
	default:
		return nil
	}
	return ebv(fc.compile(e, sc), "")
}

// compileCond lowers a condition to effective-boolean-value form, using the
// boolean fast path when available and msg as the invalid-EBV fault.
func (fc *fnCompiler) compileCond(e xq.Expr, sc *scope, msg string) cbool {
	if cb := fc.compileBool(e, sc); cb != nil {
		return cb
	}
	return ebv(fc.compile(e, sc), msg)
}

// ebv evaluates ce into scratch and takes its effective boolean value; msg
// is the invalid-EBV fault ("" when ce is boolean-valued by construction).
func ebv(ce cexpr, msg string) cbool {
	return func(f *cframe) (bool, error) {
		s, err := ce(f, f.sc.seqs.take())
		if err != nil {
			return false, err
		}
		b, ok := s.EffectiveBoolean()
		f.sc.seqs.give(s)
		if !ok && msg != "" {
			return false, errors.New(msg)
		}
		return b, nil
	}
}

// compileGeneralCompare lowers a general comparison to a boolean closure,
// specializing by static operand kind: a constant operand atomizes once at
// compile time instead of per evaluation, and a constant side against a
// predicate-free downward path — relative, or rooted at a for or quantifier
// variable — streams the scan: each reached node atomizes and compares in
// place, exiting on the first satisfying pair, with no candidate list,
// result sequence or atom slice ever built. The streaming form is
// observationally identical to materialize-then-compare because
// generalCompareAtoms never errors (incomparable pairs contribute false), so
// pair order and duplicates are invisible; only existence counts. A
// memoized operand never streams: it atomizes once per loop run into its
// memo, whose index a `=` probes (generalCompareAtoms).
func (fc *fnCompiler) compileGeneralCompare(v *xq.CompareExpr, sc *scope) cbool {
	op := v.Op
	var l, r cexpr
	lc, lConst, lHole := fc.constOperand(v.Left)
	rc, rConst, rHole := fc.constOperand(v.Right)
	lSlot, rSlot := -1, -1 // memo slots
	if !lConst {
		l, lSlot = fc.operand(v.Left, sc)
	}
	if !rConst {
		r, rSlot = fc.operand(v.Right, sc)
	}
	if path, constLeft, ok := existsComparePath(v, lConst, rConst, sc); ok && lSlot < 0 && rSlot < 0 {
		start := -1 // the focus
		if path.Input != nil {
			start, _ = itemVar(path.Input, sc)
		}
		ca, hole := rc, rHole
		if constLeft {
			ca, hole = lc, lHole
		}
		steps := path.Steps
		first := steps[0]
		return func(f *cframe) (bool, error) {
			if err := f.ctx.stop.check(); err != nil {
				return false, err
			}
			it := f.item
			if start >= 0 {
				it = f.items[start]
			} else if it == nil {
				return false, fmt.Errorf("eval: relative path with undefined context item")
			}
			n, isNode := it.(*xdm.Node)
			if !isNode {
				return false, fmt.Errorf("eval: path step %s::%s applied to atomic value", first.Axis, first.Test)
			}
			return f.existsCompare(n, steps, op, f.holeAtoms(hole, ca), constLeft)
		}
	}
	return func(f *cframe) (bool, error) {
		if err := f.ctx.stop.check(); err != nil {
			return false, err
		}
		la, ra := f.holeAtoms(lHole, lc), f.holeAtoms(rHole, rc)
		var lm, rm *atomMemo // of memoized operands
		var err error
		if !lConst {
			if la, lm, err = f.compareOperand(l, lSlot); err != nil {
				return false, err
			}
		}
		if !rConst {
			if ra, rm, err = f.compareOperand(r, rSlot); err != nil {
				return false, err
			}
		}
		res := generalCompareAtoms(op, la, ra, lm, rm)
		if !lConst && lm == nil {
			f.sc.atoms.give(la) // borrowed scratch
		}
		if !rConst && rm == nil {
			f.sc.atoms.give(ra)
		}
		return res, nil
	}
}

// constOperand returns the atoms of a general comparison's operand e when e
// is constant: folded at compile time, or a hole, whose atoms the run's
// vector supplies (hole >= 0; atoms are then its own value).
func (fc *fnCompiler) constOperand(e xq.Expr) (atoms []xdm.Atomic, ok bool, hole int) {
	if l, isLit := e.(*xq.Literal); isLit && l.Hole > 0 {
		return []xdm.Atomic{l.Val}, true, fc.hole(l)
	}
	if fc.isConst(e) {
		if s, err := fc.fold(e); err == nil {
			return s.Atomize(), true, -1
		}
	}
	return nil, false, -1
}

// hole returns the argument index holed literal l reads, counting it into
// the Program's.
func (fc *fnCompiler) hole(l *xq.Literal) int {
	fc.cp.nholes = max(fc.cp.nholes, l.Hole)
	return l.Hole - 1
}

// operand compiles comparison operand e. When e is pinned and reads nothing
// bound inside some loop around it — the loop's variable binds deeper than
// anything e reads — the outermost such loop owns a memo slot for e,
// returned (else -1), which the closure fills on first use (memoSites' rule).
func (fc *fnCompiler) operand(e xq.Expr, sc *scope) (cexpr, int) {
	depth := 0 // of the innermost binding e reads
	var owner *cloop
	if pinned(e, func(name string) bool {
		if b, ok := sc.lookup(name); ok {
			depth = max(depth, b.depth)
		}
		return true
	}) {
		for b := sc; b != nil && b.depth > depth; b = b.next {
			if b.loop != nil {
				owner = b.loop
			}
		}
	}
	if owner == nil {
		return fc.compile(e, sc), -1
	}
	slot := fc.alloc()
	owner.memos = append(owner.memos, slot)
	return memoized(fc.compile(e, sc), slot), slot
}

// existsComparePath picks out the streamable comparison shape: exactly one
// constant operand, the other a predicate-free chain of downward steps.
// constLeft reports which side the constant is on (pair order feeds
// generalPair's asymmetric promotion rules).
func existsComparePath(v *xq.CompareExpr, lConst, rConst bool, sc *scope) (p *xq.PathExpr, constLeft, ok bool) {
	if rConst && !lConst {
		if p, ok := v.Left.(*xq.PathExpr); ok && simpleDownwardPath(p, sc) {
			return p, false, true
		}
	}
	if lConst && !rConst {
		if p, ok := v.Right.(*xq.PathExpr); ok && simpleDownwardPath(p, sc) {
			return p, true, true
		}
	}
	return nil, false, false
}

// simpleDownwardPath reports whether p is a predicate-free chain of downward
// (or self) steps, relative or rooted at a for or quantifier variable — the
// shape whose node set can stream without materialization, dedup or
// document-order sorting mattering to existence.
func simpleDownwardPath(p *xq.PathExpr, sc *scope) bool {
	if len(p.Steps) == 0 {
		return false
	}
	if _, isItem := itemVar(p.Input, sc); p.Input != nil && !isItem {
		return false
	}
	for _, st := range p.Steps {
		if st.Filter || len(st.Preds) > 0 {
			return false
		}
		switch st.Axis {
		case xq.AxisChild, xq.AxisAttribute, xq.AxisSelf,
			xq.AxisDescendant, xq.AxisDescendantOrSelf:
		default:
			return false
		}
	}
	return true
}

// seqc is the eager form of a comma sequence of parts.
func seqc(parts []cexpr) cexpr {
	return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
		if err := f.ctx.stop.check(); err != nil {
			return nil, err
		}
		for _, part := range parts {
			var err error
			if dst, err = part(f, dst); err != nil {
				return nil, err
			}
		}
		return dst, nil
	}
}

// pathc is the eager form of compiled path p.
func pathc(p *cpath) cexpr {
	return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) { return f.runPath(dst, p) }
}

// compileTop lowers a function body to its eager form and to its streamed
// form, which runs the same closures and emits at the body's top-level
// boundaries: a comma operand by operand, each operand lowered by compileTop
// in turn; a for loop without order by or a remote body iteration by
// iteration (cfor.emit); a path whose last step stepStreamable admits node by
// node (emitPath). Any other body, a constant one included, is emitted whole,
// once. Every part runs in the eager form's order, so streaming changes when
// items leave, never which, and never which fault a call meets first.
func (fc *fnCompiler) compileTop(e xq.Expr, sc *scope) (cexpr, cemit) {
	if e != nil && !fc.isConst(e) {
		switch v := e.(type) {
		case *xq.SeqExpr:
			parts := make([]cexpr, len(v.Items))
			emits := make([]cemit, len(v.Items))
			for i, it := range v.Items {
				parts[i], emits[i] = fc.compileTop(it, sc)
			}
			return seqc(parts), func(f *cframe, emit func(xdm.Sequence) error) error {
				if err := f.ctx.stop.check(); err != nil {
					return err
				}
				for _, part := range emits {
					if err := part(f, emit); err != nil {
						return err
					}
				}
				return nil
			}
		case *xq.ForExpr:
			c := fc.compileFor(v, sc)
			if c.remote == nil && len(c.keys) == 0 {
				return c.run, c.emit
			}
			run := c.run
			return run, whole(run)
		case *xq.PathExpr:
			if n := len(v.Steps); n > 0 && stepStreamable(v.Steps[n-1]) {
				p := fc.compilePath(v, sc)
				return pathc(p), func(f *cframe, emit func(xdm.Sequence) error) error { return f.emitPath(p, emit) }
			}
		}
	}
	ce := fc.compile(e, sc)
	return ce, whole(ce)
}

// whole is the streamed form that emits ce's value once, complete.
func whole(ce cexpr) cemit {
	return func(f *cframe, emit func(xdm.Sequence) error) error {
		s, err := ce(f, f.sc.seqs.take())
		if err == nil {
			err = emit(s)
		}
		if err != nil {
			return err
		}
		f.sc.seqs.give(s)
		return nil
	}
}
