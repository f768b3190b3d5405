package eval

// The compiler: one pass over a normalized query lowers every expression
// into a chain of pre-resolved closures (compiled.go holds their runtime).
// The lowering rules, also documented in DESIGN.md:
//
//   - Variables resolve to frame slots at compile time; the per-candidate
//     context/frame allocations of the tree-walker disappear.
//   - Declared function calls bind to their compiled bodies at compile time.
//   - Constant subexpressions (literals and operator trees over them) fold
//     to their value; a folding *error* becomes a deferred-error closure so
//     a constant fault inside a never-taken branch still only surfaces if
//     that branch runs, exactly as in the tree-walker.
//   - Path steps compile to direct scans with predicates fused into the
//     scan; provably boolean-valued predicates (comparisons, logic, boolean
//     builtins) skip the numeric-position test entirely.
//   - Comparisons specialize by static operand kind: a constant operand is
//     atomized once at compile time.
//   - FLWOR spines compile to iterator pipelines mirroring the lazy
//     evaluator, including the >4-iteration invariant-hoisting heuristic.
//
// Anything outside the proven subset — constructors, remote calls, order-by
// loops, loops nested beyond maxCompiledForDepth — compiles to a fallback
// closure that rebuilds a tree-walker context from the frame and runs the
// interpreter for that node, so bytes cannot change.

import (
	"errors"
	"fmt"
	"strings"

	"distxq/internal/trace"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// maxCompiledForDepth bounds the nesting depth of compiled FLWOR loops.
// Every loop compiles its body in up to four variants (eager/lazy ×
// plain/hoisted), so unbounded nesting would blow up compile time
// exponentially on adversarial (fuzzed) inputs; deeper loops fall back to
// the tree-walker for the whole node.
const maxCompiledForDepth = 6

// scope is the compile-time environment: a linked list of visible bindings,
// innermost first — the same shadowing order as the tree-walker's frame
// chain.
type scope struct {
	name string
	slot int
	next *scope
}

func (s *scope) lookup(name string) (int, bool) {
	for f := s; f != nil; f = f.next {
		if f.name == name {
			return f.slot, true
		}
	}
	return 0, false
}

// compiler holds per-query compilation state shared across function bodies.
type compiler struct {
	funcs map[string]*cfunc
	order []*cfunc
	// fellBack is the set of AST nodes lowered to a tree-walker fallback (a
	// node falls back in its eager and its lazy form alike; it counts once).
	fellBack map[xq.Expr]struct{}
}

// fnCompiler allocates the slots of one compilation unit (the query body or
// one declared function).
type fnCompiler struct {
	cp       *compiler
	nslots   int
	forDepth int
}

func (fc *fnCompiler) alloc() int {
	n := fc.nslots
	fc.nslots++
	return n
}

func funcKey(name string, arity int) string {
	return fmt.Sprintf("%s/%d", name, arity)
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
// fail — unsupported shapes compile to tree-walker fallbacks.
func CompileQuery(q *xq.Query) (*Program, error) {
	if err := xq.Normalize(q); err != nil {
		return nil, err
	}
	if p, ok := q.CompiledArtifact().(*Program); ok {
		return p, nil
	}
	cp := &compiler{funcs: map[string]*cfunc{}, fellBack: map[xq.Expr]struct{}{}}
	// Pre-register every declared function so recursive and mutually
	// recursive bodies resolve their callees to the final cfunc pointers.
	for _, fd := range q.Funcs {
		cf := &cfunc{decl: fd}
		cp.funcs[funcKey(fd.Name, len(fd.Params))] = cf
		cp.order = append(cp.order, cf)
	}
	for _, cf := range cp.order {
		fc := &fnCompiler{cp: cp}
		var sc *scope
		for _, p := range cf.decl.Params {
			sc = &scope{name: p.Name, slot: fc.alloc(), next: sc}
		}
		cf.body = fc.compile(cf.decl.Body, sc)
		cf.bodySeq = fc.compileSeq(cf.decl.Body, sc)
		cf.nslots = fc.nslots
	}
	fc := &fnCompiler{cp: cp}
	p := &Program{order: cp.order, funcs: cp.funcs}
	p.body = fc.compile(q.Body, nil)
	p.bodySeq = fc.compileSeq(q.Body, nil)
	p.nslots = fc.nslots
	if len(cp.fellBack) > 0 {
		p.fallbacks = map[string]int{}
		for e := range cp.fellBack {
			p.fallbacks[strings.TrimPrefix(fmt.Sprintf("%T", e), "*xq.")]++
		}
	}
	q.SetCompiledArtifact(p)
	return p, nil
}

// CompileTraced is CompileQuery recorded as a "compile" span under parent,
// tagged with the Program's fallback sites (fallback.<construct> = count).
func CompileTraced(q *xq.Query, parent trace.SpanRef) (*Program, error) {
	sp := parent.Child("compile")
	p, err := CompileQuery(q)
	if sp.Active() && err == nil {
		for construct, n := range p.fallbacks {
			sp.Set(trace.Int("fallback."+construct, int64(n)))
		}
	}
	sp.EndErr(err)
	return p, err
}

// fallback compiles e to a closure that rebuilds a tree-walker context from
// the frame (slot values become a frame chain, the focus carries over) and
// runs the interpreter on the node — the escape hatch for everything outside
// the compiled subset.
func (fc *fnCompiler) fallback(e xq.Expr, sc *scope) cexpr {
	fc.cp.fellBack[e] = struct{}{}
	return func(f *cframe) (xdm.Sequence, error) {
		return f.treeContext(sc).eval(e)
	}
}

func constc(s xdm.Sequence) cexpr {
	return func(f *cframe) (xdm.Sequence, error) {
		if err := f.ctx.stop.check(); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func errc(err error) cexpr {
	return func(f *cframe) (xdm.Sequence, error) {
		if e := f.ctx.stop.check(); e != nil {
			return nil, e
		}
		return nil, err
	}
}

// foldEval evaluates a constant expression at compile time on a bare
// context. isConst guarantees the expression touches no engine, documents,
// focus or variables, so the result is context-independent.
func foldEval(e xq.Expr) (xdm.Sequence, error) {
	return (&context{}).eval(e)
}

// isConst reports whether e is a constant subexpression the folder may
// evaluate at compile time: literal operator trees and the nullary
// true()/false() builtins (unless shadowed by a declared function). Node
// comparisons are excluded — their operands cannot be constant anyway — and
// so is everything touching documents, construction, focus or variables.
func (fc *fnCompiler) isConst(e xq.Expr) bool {
	switch v := e.(type) {
	case *xq.Literal:
		return true
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
		_, declared := fc.cp.funcs[funcKey(v.Name, 0)]
		return !declared
	}
	return false
}

// compile lowers one expression to its eager compiled form. Every returned
// closure begins with the shared deadline check — the compiled equivalent of
// the check at the top of context.eval — so compiled code hits stopCheck at
// the same ≤stopCheckEvery-node granularity as the tree-walker.
func (fc *fnCompiler) compile(e xq.Expr, sc *scope) cexpr {
	if e != nil && fc.isConst(e) {
		s, err := foldEval(e)
		if err != nil {
			return errc(err)
		}
		return constc(s)
	}
	switch v := e.(type) {
	case nil:
		return constc(xdm.EmptySequence)
	case *xq.Literal:
		return constc(xdm.Singleton(v.Val))
	case *xq.VarRef:
		if slot, ok := sc.lookup(v.Name); ok {
			return func(f *cframe) (xdm.Sequence, error) {
				if err := f.ctx.stop.check(); err != nil {
					return nil, err
				}
				return f.slots[slot], nil
			}
		}
		return errc(fmt.Errorf("eval: unbound variable $%s", v.Name))
	case *xq.ContextItem:
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			if f.item == nil {
				return nil, fmt.Errorf("eval: context item is undefined")
			}
			return xdm.Singleton(f.item), nil
		}
	case *xq.RootExpr:
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			n, ok := f.item.(*xdm.Node)
			if !ok {
				return nil, fmt.Errorf("eval: '/' requires a node context item")
			}
			return xdm.Singleton(n.RootNode()), nil
		}
	case *xq.SeqExpr:
		parts := make([]cexpr, len(v.Items))
		for i, it := range v.Items {
			parts[i] = fc.compile(it, sc)
		}
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			out := xdm.Sequence{}
			for _, part := range parts {
				s, err := part(f)
				if err != nil {
					return nil, err
				}
				out = append(out, s...)
			}
			return out, nil
		}
	case *xq.LetExpr:
		bind := fc.compile(v.Bind, sc)
		slot := fc.alloc()
		body := fc.compile(v.Return, &scope{name: v.Var, slot: slot, next: sc})
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			s, err := bind(f)
			if err != nil {
				return nil, err
			}
			f.slots[slot] = s
			return body(f)
		}
	case *xq.IfExpr:
		cond := fc.compileCond(v.Cond, sc, "eval: invalid effective boolean value in if condition")
		then := fc.compile(v.Then, sc)
		els := fc.compile(v.Else, sc)
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			b, err := cond(f)
			if err != nil {
				return nil, err
			}
			if b {
				return then(f)
			}
			return els(f)
		}
	case *xq.ForExpr:
		return fc.compileFor(v, sc)
	case *xq.QuantifiedExpr:
		in := fc.compile(v.In, sc)
		slot := fc.alloc()
		sat := fc.compile(v.Satisfies, &scope{name: v.Var, slot: slot, next: sc})
		every := v.Every
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			s, err := in(f)
			if err != nil {
				return nil, err
			}
			for _, it := range s {
				f.slots[slot] = xdm.Singleton(it)
				r, err := sat(f)
				if err != nil {
					return nil, err
				}
				b, ok := r.EffectiveBoolean()
				if !ok {
					return nil, fmt.Errorf("eval: invalid effective boolean in quantified expression")
				}
				if every && !b {
					return boolSeq(false), nil
				}
				if !every && b {
					return boolSeq(true), nil
				}
			}
			return boolSeq(every), nil
		}
	case *xq.TypeswitchExpr:
		return fc.compileTypeswitch(v, sc)
	case *xq.LogicExpr:
		cb := fc.compileBool(e, sc)
		return func(f *cframe) (xdm.Sequence, error) {
			b, err := cb(f)
			if err != nil {
				return nil, err
			}
			return boolSeq(b), nil
		}
	case *xq.CompareExpr:
		if v.Op.IsNodeComp() {
			l := fc.compile(v.Left, sc)
			r := fc.compile(v.Right, sc)
			op := v.Op
			return func(f *cframe) (xdm.Sequence, error) {
				if err := f.ctx.stop.check(); err != nil {
					return nil, err
				}
				ls, err := l(f)
				if err != nil {
					return nil, err
				}
				rs, err := r(f)
				if err != nil {
					return nil, err
				}
				return nodeCompare(op, ls, rs)
			}
		}
		cb := fc.compileGeneralCompare(v, sc)
		return func(f *cframe) (xdm.Sequence, error) {
			b, err := cb(f)
			if err != nil {
				return nil, err
			}
			return boolSeq(b), nil
		}
	case *xq.ArithExpr:
		l := fc.compile(v.Left, sc)
		r := fc.compile(v.Right, sc)
		op := v.Op
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			ls, err := l(f)
			if err != nil {
				return nil, err
			}
			rs, err := r(f)
			if err != nil {
				return nil, err
			}
			return arithCombine(op, ls.Atomize(), rs.Atomize())
		}
	case *xq.UnaryExpr:
		operand := fc.compile(v.Operand, sc)
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			s, err := operand(f)
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
		}
	case *xq.NodeSetExpr:
		l := fc.compile(v.Left, sc)
		r := fc.compile(v.Right, sc)
		op := v.Op
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			ls, err := l(f)
			if err != nil {
				return nil, err
			}
			rs, err := r(f)
			if err != nil {
				return nil, err
			}
			return nodeSetCombine(op, ls, rs)
		}
	case *xq.PathExpr:
		input, steps := fc.compilePathParts(v, sc)
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			return f.runPath(input, steps)
		}
	case *xq.FunCall:
		return fc.compileFunCall(v, sc)
	default:
		// Constructors, XRPC/execute-at, and anything the compiler does not
		// know stay on the tree-walker.
		return fc.fallback(e, sc)
	}
}

// compileFor lowers a FLWOR loop. Order-by loops and loops nested beyond the
// depth cap fall back whole. Loops whose body is a remote call decide at
// *runtime* whether a remote caller is configured — the same Program may run
// on originator engines (bulk/scatter dispatch, handled by the tree-walk
// fallback) and on engines without a caller (the compiled loop runs and the
// body's execute-at faults exactly as interpreted code would).
func (fc *fnCompiler) compileFor(v *xq.ForExpr, sc *scope) cexpr {
	if len(v.OrderBy) > 0 || fc.forDepth >= maxCompiledForDepth {
		return fc.fallback(v, sc)
	}
	var fb cexpr
	if _, isRPC := v.Return.(*xq.XRPCExpr); isRPC {
		fb = fc.fallback(v, sc)
	}
	fc.forDepth++
	in := fc.compile(v.In, sc)
	slot := fc.alloc()
	plain := fc.compile(v.Return, &scope{name: v.Var, slot: slot, next: sc})
	// The hoisted variant replays the tree-walker's loop-invariant hoisting:
	// chosen at runtime when the loop is long enough (>4 iterations), with
	// the bindings evaluated eagerly in order — even when the hoisted operand
	// sits in a branch this execution never takes, because that is what the
	// interpreter does.
	var hoisted cexpr
	var hoistBinds []cexpr
	var hoistSlots []int
	if hBody, bindings := hoistInvariantOperands(v.Return, v.Var); len(bindings) > 0 {
		hsc := sc
		for _, b := range bindings {
			s := fc.alloc()
			hoistBinds = append(hoistBinds, fc.compile(b.expr, sc))
			hoistSlots = append(hoistSlots, s)
			hsc = &scope{name: b.name, slot: s, next: hsc}
		}
		hoisted = fc.compile(hBody, &scope{name: v.Var, slot: slot, next: hsc})
	}
	fc.forDepth--
	return func(f *cframe) (xdm.Sequence, error) {
		if fb != nil && f.ctx.eng.Remote != nil {
			return fb(f)
		}
		if err := f.ctx.stop.check(); err != nil {
			return nil, err
		}
		s, err := in(f)
		if err != nil {
			return nil, err
		}
		body := plain
		if hoisted != nil && len(s) > 4 {
			for i, hb := range hoistBinds {
				val, err := hb(f)
				if err != nil {
					return nil, err
				}
				f.bindHoisted(hoistSlots[i], val)
			}
			body = hoisted
		}
		out := xdm.Sequence{}
		for _, it := range s {
			f.slots[slot] = xdm.Singleton(it)
			r, err := body(f)
			if err != nil {
				return nil, err
			}
			out = append(out, r...)
		}
		return out, nil
	}
}

func (fc *fnCompiler) compileTypeswitch(v *xq.TypeswitchExpr, sc *scope) cexpr {
	op := fc.compile(v.Operand, sc)
	type tcase struct {
		typ    xq.SeqType
		slot   int
		hasVar bool
		ret    cexpr
	}
	cases := make([]tcase, len(v.Cases))
	for i, cs := range v.Cases {
		tc := tcase{typ: cs.Type}
		csc := sc
		if cs.Var != "" {
			tc.hasVar = true
			tc.slot = fc.alloc()
			csc = &scope{name: cs.Var, slot: tc.slot, next: sc}
		}
		tc.ret = fc.compile(cs.Return, csc)
		cases[i] = tc
	}
	defHasVar := false
	defSlot := 0
	dsc := sc
	if v.DefaultVar != "" {
		defHasVar = true
		defSlot = fc.alloc()
		dsc = &scope{name: v.DefaultVar, slot: defSlot, next: sc}
	}
	def := fc.compile(v.Default, dsc)
	return func(f *cframe) (xdm.Sequence, error) {
		if err := f.ctx.stop.check(); err != nil {
			return nil, err
		}
		s, err := op(f)
		if err != nil {
			return nil, err
		}
		for _, tc := range cases {
			if checkSeqType(s, tc.typ) == nil {
				if tc.hasVar {
					f.slots[tc.slot] = s
				}
				return tc.ret(f)
			}
		}
		if defHasVar {
			f.slots[defSlot] = s
		}
		return def(f)
	}
}

// compileFunCall lowers a function call. Argument evaluation always comes
// first — the tree-walker evaluates arguments before resolving the callee,
// so argument faults must win over unknown-function and arity faults.
func (fc *fnCompiler) compileFunCall(v *xq.FunCall, sc *scope) cexpr {
	argExprs := make([]cexpr, len(v.Args))
	for i, a := range v.Args {
		argExprs[i] = fc.compile(a, sc)
	}
	evalArgs := func(f *cframe) ([]xdm.Sequence, error) {
		args := make([]xdm.Sequence, len(argExprs))
		for i, ae := range argExprs {
			s, err := ae(f)
			if err != nil {
				return nil, err
			}
			args[i] = s
		}
		return args, nil
	}
	name := v.Name
	nargs := len(v.Args)
	if cf, ok := fc.cp.funcs[funcKey(name, nargs)]; ok {
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			args, err := evalArgs(f)
			if err != nil {
				return nil, err
			}
			return cf.call(f.ctx, args)
		}
	}
	short := strings.TrimPrefix(name, "fn:")
	bi, ok := builtins[short]
	if !ok {
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			if _, err := evalArgs(f); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("eval: unknown function %s#%d", name, nargs)
		}
	}
	if bi.minArgs > nargs || (bi.maxArgs >= 0 && nargs > bi.maxArgs) {
		minA, maxA := bi.minArgs, bi.maxArgs
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			if _, err := evalArgs(f); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("eval: %s expects %d..%d arguments, got %d", name, minA, maxA, nargs)
		}
	}
	switch short {
	case "position":
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			if f.pos == 0 {
				return nil, fmt.Errorf("eval: position() outside a predicate")
			}
			return xdm.Singleton(xdm.NewInteger(int64(f.pos))), nil
		}
	case "last":
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			if f.size == 0 {
				return nil, fmt.Errorf("eval: last() outside a predicate")
			}
			return xdm.Singleton(xdm.NewInteger(int64(f.size))), nil
		}
	case "root", "id", "idref":
		// The only remaining builtins that read the dynamic focus: give them
		// a context carrying the frame's.
		fn := bi.fn
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			args, err := evalArgs(f)
			if err != nil {
				return nil, err
			}
			return fn(f.ctx.withItem(f.item, f.pos, f.size), args)
		}
	default:
		fn := bi.fn
		return func(f *cframe) (xdm.Sequence, error) {
			if err := f.ctx.stop.check(); err != nil {
				return nil, err
			}
			args, err := evalArgs(f)
			if err != nil {
				return nil, err
			}
			return fn(f.ctx, args)
		}
	}
}

// compilePathParts lowers a path's input and steps; shared between the eager
// and streaming path forms.
func (fc *fnCompiler) compilePathParts(v *xq.PathExpr, sc *scope) (cexpr, []*cstep) {
	var input cexpr
	if v.Input != nil {
		input = fc.compile(v.Input, sc)
	}
	steps := make([]*cstep, len(v.Steps))
	for i, st := range v.Steps {
		cs := &cstep{axis: st.Axis, test: st.Test, filter: st.Filter, streamable: stepStreamable(st)}
		for _, p := range st.Preds {
			pred := cpred{b: fc.compileBool(p, sc)}
			if pred.b == nil {
				pred.gen = fc.compile(p, sc)
			}
			cs.preds = append(cs.preds, pred)
		}
		steps[i] = cs
	}
	return input, steps
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
		if _, declared := fc.cp.funcs[funcKey(v.Name, len(v.Args))]; declared {
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
	ce := fc.compile(e, sc)
	return func(f *cframe) (bool, error) {
		s, err := ce(f)
		if err != nil {
			return false, err
		}
		b, _ := s.EffectiveBoolean() // boolean singleton by construction
		return b, nil
	}
}

// compileCond lowers a condition to effective-boolean-value form, using the
// boolean fast path when available and msg as the invalid-EBV fault.
func (fc *fnCompiler) compileCond(e xq.Expr, sc *scope, msg string) cbool {
	if cb := fc.compileBool(e, sc); cb != nil {
		return cb
	}
	ce := fc.compile(e, sc)
	return func(f *cframe) (bool, error) {
		s, err := ce(f)
		if err != nil {
			return false, err
		}
		b, ok := s.EffectiveBoolean()
		if !ok {
			return false, errors.New(msg)
		}
		return b, nil
	}
}

// compileGeneralCompare lowers a general comparison to a boolean closure,
// specializing by static operand kind: a constant operand atomizes once at
// compile time instead of per evaluation, and a constant side against a
// predicate-free downward relative path streams the scan — each reached node
// atomizes and compares in place, exiting on the first satisfying pair,
// with no candidate list, result sequence or atom slice ever built. The
// streaming form is observationally identical to materialize-then-compare
// because generalCompareAtoms never errors (incomparable pairs contribute
// false), so pair order and duplicates are invisible; only existence counts.
func (fc *fnCompiler) compileGeneralCompare(v *xq.CompareExpr, sc *scope) cbool {
	op := v.Op
	var l, r cexpr
	var lc, rc []xdm.Atomic
	lConst, rConst := false, false
	if fc.isConst(v.Left) {
		if s, err := foldEval(v.Left); err == nil {
			lc, lConst = s.Atomize(), true
		}
	}
	if !lConst {
		l = fc.compile(v.Left, sc)
	}
	if fc.isConst(v.Right) {
		if s, err := foldEval(v.Right); err == nil {
			rc, rConst = s.Atomize(), true
		}
	}
	if !rConst {
		r = fc.compile(v.Right, sc)
	}
	lHoist, rHoist := hoistedSlot(v.Left, sc), hoistedSlot(v.Right, sc)
	if path, constLeft, ok := existsComparePath(v, lConst, rConst); ok {
		ca := rc
		if constLeft {
			ca = lc
		}
		steps := path.Steps
		first := steps[0]
		return func(f *cframe) (bool, error) {
			if err := f.ctx.stop.check(); err != nil {
				return false, err
			}
			if f.item == nil {
				return false, fmt.Errorf("eval: relative path with undefined context item")
			}
			n, isNode := f.item.(*xdm.Node)
			if !isNode {
				return false, fmt.Errorf("eval: path step %s::%s applied to atomic value", first.Axis, first.Test)
			}
			return f.existsCompare(n, steps, op, ca, constLeft)
		}
	}
	return func(f *cframe) (bool, error) {
		if err := f.ctx.stop.check(); err != nil {
			return false, err
		}
		la := lc
		if !lConst {
			ls, err := l(f)
			if err != nil {
				return false, err
			}
			la = f.atomized(lHoist, ls)
		}
		ra := rc
		if !rConst {
			rs, err := r(f)
			if err != nil {
				return false, err
			}
			ra = f.atomized(rHoist, rs)
		}
		return generalCompareAtoms(op, la, ra), nil
	}
}

// hoistedSlot returns the slot of comparison operand e when e refers to an
// operand a for-loop hoisted, or -1.
func hoistedSlot(e xq.Expr, sc *scope) int {
	if ref, ok := e.(*xq.VarRef); ok && strings.HasPrefix(ref.Name, hoistPrefix) {
		if slot, ok := sc.lookup(ref.Name); ok {
			return slot
		}
	}
	return -1
}

// existsComparePath picks out the streamable comparison shape: exactly one
// constant operand, the other a relative predicate-free chain of downward
// steps. constLeft reports which side the constant is on (pair order feeds
// CompareAtomics' asymmetric promotion rules).
func existsComparePath(v *xq.CompareExpr, lConst, rConst bool) (p *xq.PathExpr, constLeft, ok bool) {
	if rConst && !lConst {
		if p, ok := v.Left.(*xq.PathExpr); ok && simpleDownwardPath(p) {
			return p, false, true
		}
	}
	if lConst && !rConst {
		if p, ok := v.Right.(*xq.PathExpr); ok && simpleDownwardPath(p) {
			return p, true, true
		}
	}
	return nil, false, false
}

// simpleDownwardPath reports whether p is a relative, predicate-free chain of
// downward (or self) steps — the shape whose node set can stream without
// materialization, dedup or document-order sorting mattering to existence.
func simpleDownwardPath(p *xq.PathExpr) bool {
	if p.Input != nil || len(p.Steps) == 0 {
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

// replaySeq adapts an eager compiled expression to the lazy interface:
// nothing runs until the first pull, then the result materializes and
// replays — the compiled deferEval.
func replaySeq(ce cexpr) cseq {
	return func(f *cframe) xdm.Seq {
		return func(yield func(xdm.Item) bool) error {
			s, err := ce(f)
			if err != nil {
				return err
			}
			for _, it := range s {
				if !yield(it) {
					return nil
				}
			}
			return nil
		}
	}
}

// compileSeq lowers one expression to its lazy compiled form — the compiled
// twin of context.evalSeq, case for case: the same expressions stream, and
// everything else replays its eager form.
func (fc *fnCompiler) compileSeq(e xq.Expr, sc *scope) cseq {
	switch v := e.(type) {
	case nil:
		return func(*cframe) xdm.Seq { return xdm.EmptySeq() }
	case *xq.SeqExpr:
		parts := make([]cseq, len(v.Items))
		for i, it := range v.Items {
			parts[i] = fc.compileSeq(it, sc)
		}
		return func(f *cframe) xdm.Seq {
			return func(yield func(xdm.Item) bool) error {
				if err := f.ctx.stop.check(); err != nil {
					return err
				}
				stopped := false
				for _, part := range parts {
					err := part(f)(func(it xdm.Item) bool {
						if !yield(it) {
							stopped = true
							return false
						}
						return true
					})
					if err != nil {
						return err
					}
					if stopped {
						return nil
					}
				}
				return nil
			}
		}
	case *xq.LetExpr:
		bind := fc.compile(v.Bind, sc)
		slot := fc.alloc()
		body := fc.compileSeq(v.Return, &scope{name: v.Var, slot: slot, next: sc})
		return func(f *cframe) xdm.Seq {
			return func(yield func(xdm.Item) bool) error {
				if err := f.ctx.stop.check(); err != nil {
					return err
				}
				s, err := bind(f)
				if err != nil {
					return err
				}
				f.slots[slot] = s
				return body(f)(yield)
			}
		}
	case *xq.IfExpr:
		cond := fc.compileCond(v.Cond, sc, "eval: invalid effective boolean value in if condition")
		then := fc.compileSeq(v.Then, sc)
		els := fc.compileSeq(v.Else, sc)
		return func(f *cframe) xdm.Seq {
			return func(yield func(xdm.Item) bool) error {
				if err := f.ctx.stop.check(); err != nil {
					return err
				}
				b, err := cond(f)
				if err != nil {
					return err
				}
				if b {
					return then(f)(yield)
				}
				return els(f)(yield)
			}
		}
	case *xq.TypeswitchExpr:
		return fc.compileTypeswitchSeq(v, sc)
	case *xq.ForExpr:
		return fc.compileForSeq(v, sc)
	case *xq.PathExpr:
		n := len(v.Steps)
		if n == 0 || !stepStreamable(v.Steps[n-1]) {
			return replaySeq(fc.compile(e, sc))
		}
		input, steps := fc.compilePathParts(v, sc)
		head, last := steps[:n-1], steps[n-1]
		return func(f *cframe) xdm.Seq {
			return func(yield func(xdm.Item) bool) error {
				if err := f.ctx.stop.check(); err != nil {
					return err
				}
				cur, err := f.runPath(input, head)
				if err != nil {
					return err
				}
				if last.filter {
					return f.streamFilterItems(cur, last.preds, yield)
				}
				nodes, ok := cur.Nodes()
				if !ok {
					return fmt.Errorf("eval: path step %s::%s applied to atomic value", last.axis, last.test)
				}
				if len(nodes) > 1 && !xdm.OrderedDisjointNodes(nodes) {
					gathered, err := f.runStep(nodes, last, nil)
					if err != nil {
						return err
					}
					for _, m := range gathered {
						if !yield(m) {
							return nil
						}
					}
					return nil
				}
				return f.streamCompiledStep(nodes, last, yield)
			}
		}
	default:
		return replaySeq(fc.compile(e, sc))
	}
}

func (fc *fnCompiler) compileTypeswitchSeq(v *xq.TypeswitchExpr, sc *scope) cseq {
	op := fc.compile(v.Operand, sc)
	type tcase struct {
		typ    xq.SeqType
		slot   int
		hasVar bool
		ret    cseq
	}
	cases := make([]tcase, len(v.Cases))
	for i, cs := range v.Cases {
		tc := tcase{typ: cs.Type}
		csc := sc
		if cs.Var != "" {
			tc.hasVar = true
			tc.slot = fc.alloc()
			csc = &scope{name: cs.Var, slot: tc.slot, next: sc}
		}
		tc.ret = fc.compileSeq(cs.Return, csc)
		cases[i] = tc
	}
	defHasVar := false
	defSlot := 0
	dsc := sc
	if v.DefaultVar != "" {
		defHasVar = true
		defSlot = fc.alloc()
		dsc = &scope{name: v.DefaultVar, slot: defSlot, next: sc}
	}
	def := fc.compileSeq(v.Default, dsc)
	return func(f *cframe) xdm.Seq {
		return func(yield func(xdm.Item) bool) error {
			if err := f.ctx.stop.check(); err != nil {
				return err
			}
			s, err := op(f)
			if err != nil {
				return err
			}
			for _, tc := range cases {
				if checkSeqType(s, tc.typ) == nil {
					if tc.hasVar {
						f.slots[tc.slot] = s
					}
					return tc.ret(f)(yield)
				}
			}
			if defHasVar {
				f.slots[defSlot] = s
			}
			return def(f)(yield)
		}
	}
}

// compileForSeq lowers a FLWOR loop to the streaming pipeline of forSeq:
// each iteration's body items are yielded before the next input item is
// pulled, the first four inputs are buffered until the hoisting heuristic
// decides, and the remote special cases defer to the eager evaluator at
// runtime exactly as evalSeq does.
func (fc *fnCompiler) compileForSeq(v *xq.ForExpr, sc *scope) cseq {
	if len(v.OrderBy) > 0 || fc.forDepth >= maxCompiledForDepth {
		return replaySeq(fc.fallback(v, sc))
	}
	var fb cexpr
	if _, isRPC := v.Return.(*xq.XRPCExpr); isRPC {
		fb = fc.fallback(v, sc)
	}
	fc.forDepth++
	in := fc.compileSeq(v.In, sc)
	slot := fc.alloc()
	plain := fc.compileSeq(v.Return, &scope{name: v.Var, slot: slot, next: sc})
	var hoistedBody cseq
	var hoistBinds []cexpr
	var hoistSlots []int
	if hBody, bindings := hoistInvariantOperands(v.Return, v.Var); len(bindings) > 0 {
		hsc := sc
		for _, b := range bindings {
			s := fc.alloc()
			hoistBinds = append(hoistBinds, fc.compile(b.expr, sc))
			hoistSlots = append(hoistSlots, s)
			hsc = &scope{name: b.name, slot: s, next: hsc}
		}
		hoistedBody = fc.compileSeq(hBody, &scope{name: v.Var, slot: slot, next: hsc})
	}
	fc.forDepth--
	return func(f *cframe) xdm.Seq {
		return func(yield func(xdm.Item) bool) error {
			if fb != nil && f.ctx.eng.Remote != nil {
				s, err := fb(f)
				if err != nil {
					return err
				}
				for _, it := range s {
					if !yield(it) {
						return nil
					}
				}
				return nil
			}
			if err := f.ctx.stop.check(); err != nil {
				return err
			}
			body := plain
			runBody := func(it xdm.Item) (bool, error) {
				f.slots[slot] = xdm.Singleton(it)
				stopped := false
				err := body(f)(func(x xdm.Item) bool {
					if !yield(x) {
						stopped = true
						return false
					}
					return true
				})
				return !stopped, err
			}
			var buf xdm.Sequence
			var inErr error
			hoisted := false
			stopped := false
			err := in(f)(func(it xdm.Item) bool {
				if !hoisted {
					buf = append(buf, it)
					if len(buf) <= 4 {
						return true
					}
					hoisted = true
					if hoistedBody != nil {
						body = hoistedBody
						for i, hb := range hoistBinds {
							val, err := hb(f)
							if err != nil {
								inErr = err
								return false
							}
							f.bindHoisted(hoistSlots[i], val)
						}
					}
					for _, b := range buf {
						cont, err := runBody(b)
						if err != nil || !cont {
							inErr, stopped = err, !cont
							return false
						}
					}
					buf = nil
					return true
				}
				cont, err := runBody(it)
				if err != nil || !cont {
					inErr, stopped = err, !cont
					return false
				}
				return true
			})
			if err != nil {
				return err
			}
			if inErr != nil {
				return inErr
			}
			if stopped {
				return nil
			}
			for _, b := range buf { // short loop: never hoisted, replay now
				cont, err := runBody(b)
				if err != nil {
					return err
				}
				if !cont {
					return nil
				}
			}
			return nil
		}
	}
}
