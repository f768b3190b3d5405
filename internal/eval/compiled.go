package eval

// Runtime for compiled queries. compile.go lowers a normalized query into a
// Program: chains of pre-resolved closures over a flat slot frame. This file
// holds the runtime those closures execute against — the frame, the calling
// convention for declared functions, and the specialized path-step scanners.
//
// The correctness contract, enforced by FuzzCompiledVsTreeWalk: a compiled
// query produces byte-identical results AND byte-identical errors to the
// tree-walking evaluator. Every specialization below therefore mirrors the
// corresponding tree-walk routine exactly (same candidate order, same
// predicate numbering, same error strings); anything the compiler cannot
// prove safe falls back to the tree-walker itself (see fnCompiler.fallback),
// so divergence is structurally impossible outside the compiled subset.

import (
	"fmt"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// Options selects optional engine behaviors.
type Options struct {
	// Compile lowers a query on its first use by this engine into chains of
	// pre-resolved closures (variables become frame slots, constants fold,
	// downward path steps become direct scans with fused predicates). It is
	// the engine primitive behind the differential oracle and the
	// micro-benchmarks; production code never sets it. Whatever its value, a
	// query that already carries a Program runs it — the caches that witness
	// reuse (the service's plan cache, the XRPC server's module cache) attach
	// one to what they retain — and any other query tree-walks. Results and
	// errors are identical either way; only speed changes.
	Compile bool
}

// cexpr is a compiled expression: evaluate eagerly against a frame.
type cexpr func(*cframe) (xdm.Sequence, error)

// cseq is a compiled lazy expression: the twin of context.evalSeq. The
// returned xdm.Seq reads the frame at pull time, synchronously with the
// producing loop, so slot values are always the binding in scope.
type cseq func(*cframe) xdm.Seq

// cbool is a compiled boolean-valued expression (comparison, logic, boolean
// builtin): the predicate fast path that skips sequence materialization.
type cbool func(*cframe) (bool, error)

// cframe is the activation record of one compiled query or function call:
// variable slots resolved at compile time plus the dynamic focus. ctx carries
// the engine, static context and stopCheck; its vars chain is never used by
// compiled code (slots replace it) but is rebuilt on demand when a fallback
// closure re-enters the tree-walker.
type cframe struct {
	ctx   *context
	slots []xdm.Sequence
	item  xdm.Item
	pos   int
	size  int
	// atoms memoizes, per hoisted-operand slot, the atomized form of the
	// slot's value — the compiled twin of frame.atoms. bindHoisted drops the
	// entry whenever the loop that owns the slot evaluates the operand anew.
	atoms map[int][]xdm.Atomic
}

// bindHoisted stores a freshly evaluated hoisted comparison operand.
func (f *cframe) bindHoisted(slot int, val xdm.Sequence) {
	f.slots[slot] = val
	delete(f.atoms, slot)
}

// atomized returns s.Atomize() for s the value of a comparison operand,
// through the memo when the operand is the hoisted slot given (slot >= 0).
func (f *cframe) atomized(slot int, s xdm.Sequence) []xdm.Atomic {
	if slot < 0 {
		return s.Atomize()
	}
	a, ok := f.atoms[slot]
	if !ok {
		if f.atoms == nil {
			f.atoms = map[int][]xdm.Atomic{}
		}
		a = s.Atomize()
		f.atoms[slot] = a
	}
	return a
}

// Program is the compiled artifact of one query: the compiled body (eager
// and lazy forms) plus every declared function. A Program is immutable after
// compilation and engine-independent — all engine state is read from the
// context a run is given — so one Program may execute concurrently on any
// number of engines.
type Program struct {
	nslots  int
	body    cexpr
	bodySeq cseq
	// order holds the declared functions in declaration order (the lookup
	// order of EvalFunctionDeadline); funcs indexes them by name/arity with
	// later declarations winning (the lookup rule of evalFunCall).
	order []*cfunc
	funcs map[string]*cfunc
	// fallbacks counts, by AST construct, the nodes that lowered to a
	// tree-walker fallback — tallied once while compiling, never at run time.
	fallbacks map[string]int
}

// FallbackSites reports how many nodes of each AST construct (xq type name,
// e.g. "ElemConstructor") this Program hands back to the tree-walker.
// Callers must not modify the map.
func (p *Program) FallbackSites() map[string]int { return p.fallbacks }

// cfunc is one compiled declared function.
type cfunc struct {
	decl    *xq.FuncDecl
	nslots  int
	body    cexpr
	bodySeq cseq
}

// run evaluates the program body eagerly under ctx.
func (p *Program) run(ctx *context) (xdm.Sequence, error) {
	f := &cframe{ctx: ctx, slots: make([]xdm.Sequence, p.nslots)}
	return p.body(f)
}

// runSeq returns the program body as a lazy sequence; the frame is created at
// first pull, matching the nothing-runs-until-pulled contract of QuerySeq.
func (p *Program) runSeq(ctx *context) xdm.Seq {
	return func(yield func(xdm.Item) bool) error {
		f := &cframe{ctx: ctx, slots: make([]xdm.Sequence, p.nslots)}
		return p.bodySeq(f)(yield)
	}
}

// callFunction invokes a declared function by name and arity — the compiled
// counterpart of EvalFunctionDeadline's scan, in the same declaration order.
func (p *Program) callFunction(ctx *context, name string, args []xdm.Sequence) (xdm.Sequence, error) {
	for _, cf := range p.order {
		if cf.decl.Name == name && len(cf.decl.Params) == len(args) {
			return cf.call(ctx, args)
		}
	}
	return nil, fmt.Errorf("eval: function %s#%d not declared", name, len(args))
}

// callFunctionSeq is the lazy twin of callFunction.
func (p *Program) callFunctionSeq(ctx *context, name string, args []xdm.Sequence) (xdm.Seq, error) {
	for _, cf := range p.order {
		if cf.decl.Name == name && len(cf.decl.Params) == len(args) {
			return cf.callSeq(ctx, args)
		}
	}
	return nil, fmt.Errorf("eval: function %s#%d not declared", name, len(args))
}

// call runs a compiled declared function: parameters type-check into the
// first frame slots, the body runs, the result type-checks — exactly
// callDeclared with slots in place of a bound chain.
func (cf *cfunc) call(ctx *context, args []xdm.Sequence) (xdm.Sequence, error) {
	f := &cframe{ctx: ctx, slots: make([]xdm.Sequence, cf.nslots)}
	for i, p := range cf.decl.Params {
		if err := checkSeqType(args[i], p.Type); err != nil {
			return nil, fmt.Errorf("eval: %s($%s): %w", cf.decl.Name, p.Name, err)
		}
		f.slots[i] = args[i]
	}
	res, err := cf.body(f)
	if err != nil {
		return nil, err
	}
	if err := checkSeqType(res, cf.decl.Return); err != nil {
		return nil, fmt.Errorf("eval: %s result: %w", cf.decl.Name, err)
	}
	return res, nil
}

// callSeq mirrors callDeclaredSeq: parameters check eagerly (faults beat
// frames), then the body streams when the declared occurrence is `*` and
// materializes-then-checks otherwise.
func (cf *cfunc) callSeq(ctx *context, args []xdm.Sequence) (xdm.Seq, error) {
	for i, p := range cf.decl.Params {
		if err := checkSeqType(args[i], p.Type); err != nil {
			return nil, fmt.Errorf("eval: %s($%s): %w", cf.decl.Name, p.Name, err)
		}
	}
	newFrame := func() *cframe {
		f := &cframe{ctx: ctx, slots: make([]xdm.Sequence, cf.nslots)}
		copy(f.slots, args)
		return f
	}
	if cf.decl.Return.Occur != xq.OccurStar {
		return func(yield func(xdm.Item) bool) error {
			res, err := cf.body(newFrame())
			if err != nil {
				return err
			}
			if err := checkSeqType(res, cf.decl.Return); err != nil {
				return fmt.Errorf("eval: %s result: %w", cf.decl.Name, err)
			}
			for _, it := range res {
				if !yield(it) {
					return nil
				}
			}
			return nil
		}, nil
	}
	if cf.decl.Return.Item == "item()" || cf.decl.Return.Item == "" {
		return func(yield func(xdm.Item) bool) error {
			return cf.bodySeq(newFrame())(yield)
		}, nil
	}
	return func(yield func(xdm.Item) bool) error {
		var typeErr error
		err := cf.bodySeq(newFrame())(func(it xdm.Item) bool {
			if !itemMatches(it, cf.decl.Return.Item) {
				typeErr = fmt.Errorf("eval: %s result: item %v does not match type %s", cf.decl.Name, it, cf.decl.Return.Item)
				return false
			}
			return yield(it)
		})
		if err != nil {
			return err
		}
		return typeErr
	}, nil
}

// treeContext rebuilds a tree-walker context from the frame: the fallback
// bridge. The slot values of every binding in lexical scope become a frame
// chain (innermost first, the lookup order of context.lookup).
func (f *cframe) treeContext(sc *scope) *context {
	nc := *f.ctx
	nc.item, nc.pos, nc.size = f.item, f.pos, f.size
	nc.vars = f.frameChain(sc)
	return &nc
}

func (f *cframe) frameChain(sc *scope) *frame {
	if sc == nil {
		return nil
	}
	return &frame{name: sc.name, val: f.slots[sc.slot], next: f.frameChain(sc.next)}
}

// ------------------------------------------------------------- path runtime --

// cstep is one compiled path step: pre-resolved axis/test plus compiled
// predicates.
type cstep struct {
	axis       xq.Axis
	test       xq.NodeTest
	filter     bool
	preds      []cpred
	streamable bool
}

// cpred is one compiled predicate. When b is non-nil the predicate is
// provably boolean-valued (comparison, logic, boolean builtin): it is fused
// into the scan without the numeric-position test or a result sequence.
// Otherwise gen runs and the general rule applies (numeric singleton selects
// by position, anything else by effective boolean value).
type cpred struct {
	b   cbool
	gen cexpr
}

// runPath executes a compiled path — the mirror of evalPath, including the
// ping-pong scratch buffers.
func (f *cframe) runPath(input cexpr, steps []*cstep) (xdm.Sequence, error) {
	var cur xdm.Sequence
	switch {
	case input != nil:
		s, err := input(f)
		if err != nil {
			return nil, err
		}
		cur = s
	case f.item != nil:
		cur = xdm.Singleton(f.item)
	default:
		return nil, fmt.Errorf("eval: relative path with undefined context item")
	}
	var curNodes, spare []*xdm.Node
	haveNodes := false
	for _, st := range steps {
		if st.filter {
			if haveNodes {
				cur = xdm.NodeSeq(curNodes)
				haveNodes = false
			}
			filtered, err := f.runFilterItems(cur, st.preds)
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
				return nil, fmt.Errorf("eval: path step %s::%s applied to atomic value", st.axis, st.test)
			}
		}
		gathered, err := f.runStep(nodes, st, spare[:0])
		if err != nil {
			return nil, err
		}
		spare = nodes[:0]
		curNodes, haveNodes = gathered, true
	}
	if haveNodes {
		cur = xdm.NodeSeq(curNodes)
	}
	return cur, nil
}

// runStep maps one compiled non-filter step over its context nodes — the
// mirror of evalStep with the specialized axis scanners.
func (f *cframe) runStep(nodes []*xdm.Node, st *cstep, dst []*xdm.Node) ([]*xdm.Node, error) {
	gathered := dst
	for _, n := range nodes {
		start := len(gathered)
		var err error
		gathered, err = f.gatherAxis(gathered, n, st)
		if err != nil {
			return nil, err
		}
		if len(st.preds) > 0 {
			seg, err := f.runFilterPreds(gathered[start:], st.preds)
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

// gatherAxis appends one context node's axis candidates to dst. The downward
// axes are compiled to direct scans over the frozen tree — child/attribute
// slice walks and the subtree scan, which enumerates exactly the pre-order
// interval [n.Pre(), n.Pre()+n.SubtreeSize()) — with the deadline check at
// per-node granularity, the budget contract compiled loops must keep (the
// tree-walk equivalent is one check per AST node per candidate via the
// predicate evaluation; axis gathering itself is the one place the compiled
// code checks *more* often, never less). Non-downward axes reuse
// appendAxisNodes wholesale.
func (f *cframe) gatherAxis(dst []*xdm.Node, n *xdm.Node, st *cstep) ([]*xdm.Node, error) {
	stop := f.ctx.stop
	switch st.axis {
	case xq.AxisChild:
		if n.Kind == xdm.AttributeNode {
			return dst, nil
		}
		for _, ch := range n.Children {
			if err := stop.check(); err != nil {
				return nil, err
			}
			if matchTest(ch, st.axis, st.test) {
				dst = append(dst, ch)
			}
		}
	case xq.AxisAttribute:
		for _, a := range n.Attrs {
			if err := stop.check(); err != nil {
				return nil, err
			}
			if matchTest(a, st.axis, st.test) {
				dst = append(dst, a)
			}
		}
	case xq.AxisSelf:
		if err := stop.check(); err != nil {
			return nil, err
		}
		if matchTest(n, st.axis, st.test) {
			dst = append(dst, n)
		}
	case xq.AxisDescendant:
		for _, ch := range n.Children {
			var err error
			dst, err = scanSubtree(dst, ch, st.axis, st.test, stop)
			if err != nil {
				return nil, err
			}
		}
	case xq.AxisDescendantOrSelf:
		return scanSubtree(dst, n, st.axis, st.test, stop)
	default:
		if err := stop.check(); err != nil {
			return nil, err
		}
		dst = appendAxisNodes(dst, n, st.axis, st.test)
	}
	return dst, nil
}

// scanSubtree appends n and its element/text descendants matching the test,
// in document (pre) order, checking the deadline per visited node.
func scanSubtree(dst []*xdm.Node, n *xdm.Node, axis xq.Axis, test xq.NodeTest, stop *stopCheck) ([]*xdm.Node, error) {
	if err := stop.check(); err != nil {
		return nil, err
	}
	if matchTest(n, axis, test) {
		dst = append(dst, n)
	}
	for _, ch := range n.Children {
		var err error
		dst, err = scanSubtree(dst, ch, axis, test, stop)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// runFilterPreds applies compiled step predicates to a candidate segment,
// compacting in place — the mirror of filterPreds, minus the per-candidate
// context allocation: the frame's focus is set and restored around each
// predicate evaluation.
func (f *cframe) runFilterPreds(nodes []*xdm.Node, preds []cpred) ([]*xdm.Node, error) {
	for _, pred := range preds {
		kept := nodes[:0]
		size := len(nodes)
		for i, n := range nodes {
			keep, err := f.evalPred(pred, n, i+1, size)
			if err != nil {
				return nil, err
			}
			if keep {
				kept = append(kept, n)
			}
		}
		nodes = kept
	}
	return nodes, nil
}

// runFilterItems is the filter-step mirror of filterItems: positions count
// over the whole sequence per predicate layer.
func (f *cframe) runFilterItems(items xdm.Sequence, preds []cpred) (xdm.Sequence, error) {
	for _, pred := range preds {
		kept := xdm.Sequence{}
		size := len(items)
		for i, it := range items {
			keep, err := f.evalPred(pred, it, i+1, size)
			if err != nil {
				return nil, err
			}
			if keep {
				kept = append(kept, it)
			}
		}
		items = kept
	}
	return items, nil
}

// evalPred decides one predicate candidate at the given focus. Fused boolean
// predicates skip the numeric-position rule — their value is provably a
// boolean singleton, which the general rule maps to its effective boolean
// value anyway. size 0 means "streaming, size unobservable" exactly as in
// evalStreamPred.
func (f *cframe) evalPred(pred cpred, it xdm.Item, pos, size int) (bool, error) {
	oi, op, os := f.item, f.pos, f.size
	f.item, f.pos, f.size = it, pos, size
	var keep bool
	var err error
	if pred.b != nil {
		keep, err = pred.b(f)
	} else {
		var s xdm.Sequence
		s, err = pred.gen(f)
		switch {
		case err != nil:
		default:
			numeric := false
			if len(s) == 1 {
				if a, isAtom := s[0].(xdm.Atomic); isAtom && a.IsNumeric() {
					numeric = true
					keep = int(a.Number()) == pos
				}
			}
			if !numeric {
				b, ok := s.EffectiveBoolean()
				if !ok {
					err = fmt.Errorf("eval: invalid predicate value")
				}
				keep = b
			}
		}
	}
	f.item, f.pos, f.size = oi, op, os
	return keep, err
}

// existsCompare decides a general comparison between the downward path rooted
// at n and pre-atomized constant atoms ca, streaming: every node the step
// chain reaches atomizes in place and compares against each constant, and the
// scan unwinds at the first satisfying pair. constLeft orients the pairs
// (constant on the left feeds CompareAtomics' first argument). The deadline
// is checked per visited node, as in gatherAxis.
func (f *cframe) existsCompare(n *xdm.Node, steps []*xq.Step, op xq.CompOp, ca []xdm.Atomic, constLeft bool) (bool, error) {
	st := steps[0]
	rest := steps[1:]
	check := func(m *xdm.Node) (bool, error) {
		if len(rest) > 0 {
			return f.existsCompare(m, rest, op, ca, constLeft)
		}
		a := xdm.NewUntyped(m.StringValue())
		for _, c := range ca {
			l, r := a, c
			if constLeft {
				l, r = c, a
			}
			if cmp, ok := xdm.CompareAtomics(l, r); ok && compareSatisfies(op, cmp) {
				return true, nil
			}
		}
		return false, nil
	}
	stop := f.ctx.stop
	switch st.Axis {
	case xq.AxisChild:
		if n.Kind == xdm.AttributeNode {
			return false, nil
		}
		for _, ch := range n.Children {
			if err := stop.check(); err != nil {
				return false, err
			}
			if matchTest(ch, st.Axis, st.Test) {
				if found, err := check(ch); err != nil || found {
					return found, err
				}
			}
		}
	case xq.AxisAttribute:
		for _, a := range n.Attrs {
			if err := stop.check(); err != nil {
				return false, err
			}
			if matchTest(a, st.Axis, st.Test) {
				if found, err := check(a); err != nil || found {
					return found, err
				}
			}
		}
	case xq.AxisSelf:
		if err := stop.check(); err != nil {
			return false, err
		}
		if matchTest(n, st.Axis, st.Test) {
			return check(n)
		}
	case xq.AxisDescendant:
		for _, ch := range n.Children {
			if found, err := scanSubtreeExists(ch, st, check, stop); err != nil || found {
				return found, err
			}
		}
	case xq.AxisDescendantOrSelf:
		return scanSubtreeExists(n, st, check, stop)
	}
	return false, nil
}

// scanSubtreeExists is scanSubtree with a short-circuiting visitor instead of
// an accumulating slice.
func scanSubtreeExists(n *xdm.Node, st *xq.Step, check func(*xdm.Node) (bool, error), stop *stopCheck) (bool, error) {
	if err := stop.check(); err != nil {
		return false, err
	}
	if matchTest(n, st.Axis, st.Test) {
		if found, err := check(n); err != nil || found {
			return found, err
		}
	}
	for _, ch := range n.Children {
		if found, err := scanSubtreeExists(ch, st, check, stop); err != nil || found {
			return found, err
		}
	}
	return false, nil
}

// streamStep streams a compiled final step — the mirror of streamStep/
// predSink in lazy.go, with compiled predicates. The axis walk itself is
// walkAxis, shared with the lazy tree-walker.
func (f *cframe) streamCompiledStep(nodes []*xdm.Node, st *cstep, yield func(xdm.Item) bool) error {
	for _, n := range nodes {
		sink := nodeSink(func(m *xdm.Node) (bool, error) {
			return yield(m), nil
		})
		for i := len(st.preds) - 1; i >= 0; i-- {
			pred, next := st.preds[i], sink
			pos := 0
			sink = func(m *xdm.Node) (bool, error) {
				pos++
				keep, err := f.evalPred(pred, m, pos, 0)
				if err != nil {
					return false, err
				}
				if !keep {
					return true, nil
				}
				return next(m)
			}
		}
		cont, err := f.ctx.walkAxis(n, st.axis, st.test, sink)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return nil
}

// streamFilterItems streams a compiled final filter step — the mirror of
// filterItemsSeq.
func (f *cframe) streamFilterItems(items xdm.Sequence, preds []cpred, yield func(xdm.Item) bool) error {
	sink := func(it xdm.Item) (bool, error) {
		return yield(it), nil
	}
	for i := len(preds) - 1; i >= 0; i-- {
		pred, next := preds[i], sink
		pos := 0
		sink = func(it xdm.Item) (bool, error) {
			pos++
			keep, err := f.evalPred(pred, it, pos, 0)
			if err != nil {
				return false, err
			}
			if !keep {
				return true, nil
			}
			return next(it)
		}
	}
	for _, it := range items {
		if err := f.ctx.stop.check(); err != nil {
			return err
		}
		cont, err := sink(it)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return nil
}
