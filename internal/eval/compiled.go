package eval

// Runtime for compiled queries. compile.go lowers a normalized query into a
// Program: chains of pre-resolved closures over a flat slot frame. This file
// holds the runtime those closures execute against — the frame and its
// scratch, the calling convention for declared functions, the specialized
// path-step scanners, order-by loops and constructors.
//
// The correctness contract, enforced by FuzzCompiledVsTreeWalk: a compiled
// query produces byte-identical results AND byte-identical errors to the
// tree-walking evaluator the package's tests keep as their oracle. Every
// specialization below therefore keeps the plain evaluation's order exactly
// (same candidate order, same predicate numbering, same error strings), and
// the kernels — comparison, arithmetic, the order-by comparator, the
// constructor builder, the remote-dispatch routines — are shared with it.

import (
	"fmt"
	"strings"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// Options selects optional engine behaviors.
type Options struct {
	// Compile makes a call of a query that carries no Program attach the
	// lowering it runs, so the engine's later calls of the same query object
	// reuse it and Stats.Compilations counts it. Without it the lowering
	// serves the one call and is dropped: the caches that witness reuse (the
	// service's plan cache, the XRPC server's module cache) attach a Program
	// to what they retain. Every call runs compiled code either way; only
	// retention changes. Production code never sets it; benchmarks do.
	Compile bool
}

// cexpr is a compiled expression in eager form: it evaluates completely and
// appends its value to dst, returning the extended slice. With dst nil the
// result may share storage with a slot or a constant, so it comes back with
// capacity equal to its length (appendSeq): whoever appends to a value it
// got copies it first.
type cexpr func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error)

// cemit is a function body's streamed form, built from the closures of its
// eager form (compileTop): it hands emit the value of each top-level part as
// soon as that part is complete. emit must not keep the sequence it is
// handed; an error it returns stops the run and comes back unchanged.
type cemit func(f *cframe, emit func(xdm.Sequence) error) error

// cbool is a compiled boolean-valued expression (comparison, logic, boolean
// builtin): the predicate fast path that skips sequence materialization.
type cbool func(*cframe) (bool, error)

// appendSeq appends s to dst; with dst nil it returns s itself, clipped to
// its length so that a later append cannot write into storage s shares.
func appendSeq(dst, s xdm.Sequence) xdm.Sequence {
	if dst == nil {
		return s[:len(s):len(s)]
	}
	return append(dst, s...)
}

// cframe is the activation record of one compiled query or function call:
// variable slots resolved at compile time plus the dynamic focus. A let,
// typeswitch or parameter binding, and a memoized comparison operand's
// value, hold a sequence (slots; an empty memo slot is nil); a for or
// quantifier variable holds its one item (items). ctx carries the engine,
// static context and stopCheck.
type cframe struct {
	ctx   *context
	slots []xdm.Sequence
	items []xdm.Item
	item  xdm.Item
	pos   int
	size  int
	// atoms holds, per memo slot, the atomized form of the slot's value and
	// its `=` index; the prologue of the loop that owns the slot empties
	// both. Indexed like slots; nil until first use.
	atoms []atomMemo
	sc    *cscratch
}

// newFrame returns a frame for a compiled unit with nslots sequence and
// nitems item slots. A call shares its caller's scratch; a run starts one.
func newFrame(ctx *context, nslots, nitems int, sc *cscratch) *cframe {
	if sc == nil {
		r := &struct {
			f  cframe
			sc cscratch
		}{}
		r.sc.seqs.size, r.sc.nodes.size, r.sc.atoms.size = 8, 8, 2
		r.f.sc = &r.sc
		r.f.ctx = ctx
		r.f.slots = make([]xdm.Sequence, nslots)
		r.f.items = make([]xdm.Item, nitems)
		return &r.f
	}
	return &cframe{ctx: ctx, slots: make([]xdm.Sequence, nslots), items: make([]xdm.Item, nitems), sc: sc}
}

// cscratch is the working storage of one run of a Program: free lists of
// the sequence, node and atom buffers compiled code borrows for values it
// consumes on the spot, and the constructors' tree builder. Every frame of a
// run shares it and no two runs do, so it needs no lock. A borrowed buffer
// goes back once its contents have been consumed — never while a returned
// value could still alias it.
type cscratch struct {
	seqs  freeList[xdm.Item]
	nodes freeList[*xdm.Node]
	atoms freeList[xdm.Atomic]
	build *treeBuilder
	// boxed holds the run's arguments as sequences, each boxed on first use.
	boxed []xdm.Sequence
}

// builder returns the run's tree builder, made on the first construction.
func (sc *cscratch) builder() *treeBuilder {
	if sc.build == nil {
		sc.build = new(treeBuilder)
	}
	return sc.build
}

// freeList recycles scratch slices. take never returns nil, so a cexpr
// handed a borrowed buffer always appends into it. A fresh buffer holds
// size elements: a short run (one call of a shipped function) pays for every
// buffer it starts, and most scratch values are a few items.
type freeList[T any] struct {
	free [][]T
	size int
}

func (l *freeList[T]) take() []T {
	if n := len(l.free); n > 0 {
		s := l.free[n-1]
		l.free = l.free[:n-1]
		return s
	}
	return make([]T, 0, l.size)
}

func (l *freeList[T]) give(s []T) { l.free = append(l.free, s[:0]) }

// memoized is ce read through memo slot slot: the first run fills the
// slot, and later runs replay it until the prologue of the loop that owns
// the slot empties it.
func memoized(ce cexpr, slot int) cexpr {
	return func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error) {
		if f.slots[slot] == nil {
			s, err := ce(f, nil)
			if err != nil {
				return nil, err
			}
			f.slots[slot] = filled(s)
		}
		return appendSeq(dst, f.slots[slot]), nil
	}
}

// atomsOf evaluates ce and returns its atomized value in a borrowed atom
// buffer.
func (f *cframe) atomsOf(ce cexpr) ([]xdm.Atomic, error) {
	s, err := ce(f, f.sc.seqs.take())
	if err != nil {
		return nil, err
	}
	a := appendAtoms(f.sc.atoms.take(), s)
	f.sc.seqs.give(s)
	return a, nil
}

// compareOperand atomizes a general comparison's operand: through the
// memo, returned, of memo slot slot (slot >= 0), else into a borrowed
// buffer (m == nil).
func (f *cframe) compareOperand(ce cexpr, slot int) (a []xdm.Atomic, m *atomMemo, err error) {
	if slot < 0 {
		a, err = f.atomsOf(ce)
		return a, nil, err
	}
	s, err := ce(f, nil)
	if err != nil {
		return nil, nil, err
	}
	if f.atoms == nil {
		f.atoms = make([]atomMemo, len(f.slots))
	}
	m = &f.atoms[slot]
	return m.atomize(s), m, nil
}

// tcase is one compiled typeswitch case: its sequence type and the slot its
// variable binds (-1: none). The default case comes last.
type tcase struct {
	typ  xq.SeqType
	slot int
}

// typeswitch evaluates the operand and returns the index of the case that
// matches it (the default's when none does), with its variable bound.
func (f *cframe) typeswitch(op cexpr, cases []tcase) (int, error) {
	if err := f.ctx.stop.check(); err != nil {
		return 0, err
	}
	s, err := op(f, nil)
	if err != nil {
		return 0, err
	}
	i := len(cases) - 1
	for k, tc := range cases[:i] {
		if checkSeqType(s, tc.typ) == nil {
			i = k
			break
		}
	}
	if cases[i].slot >= 0 {
		f.slots[cases[i].slot] = s
	}
	return i, nil
}

// loopInput is the prologue both forms of a compiled for loop share: it
// empties the memo slots the loop owns, then evaluates the input whole
// into borrowed scratch (the caller gives it back).
func (f *cframe) loopInput(in cexpr, loop *cloop) (xdm.Sequence, error) {
	if err := f.ctx.stop.check(); err != nil {
		return nil, err
	}
	for _, slot := range loop.memos {
		f.slots[slot] = nil
		if f.atoms != nil {
			f.atoms[slot] = atomMemo{}
		}
	}
	return in(f, f.sc.seqs.take())
}

// orderLoop runs an order-by loop's iterations over in — per iteration in
// input order its keys, then its body — sorts them with the shared
// sortOrdered and appends their results to dst in its order. Keys and
// results accumulate in two flat buffers, results by end offset, so an
// iteration allocates nothing of its own.
func (f *cframe) orderLoop(dst, in xdm.Sequence, slot int, keys []cexpr, specs []xq.OrderSpec, body cexpr) (xdm.Sequence, error) {
	k := len(keys)
	ends := make([]int32, len(in)+1)
	atoms := make([]xdm.Atomic, len(in)*k)
	flat, kb := f.sc.seqs.take(), f.sc.seqs.take()
	for i, it := range in {
		if err := f.ctx.stop.check(); err != nil {
			return nil, err
		}
		f.items[slot] = it
		for j, key := range keys {
			var err error
			if kb, err = key(f, kb[:0]); err != nil {
				return nil, err
			}
			if atoms[i*k+j], err = orderKey(kb); err != nil {
				return nil, err
			}
		}
		var err error
		if flat, err = body(f, flat); err != nil {
			return nil, err
		}
		ends[i+1] = int32(len(flat))
	}
	f.sc.seqs.give(kb)
	perm, err := sortOrdered(atoms, specs)
	if err != nil {
		return nil, err
	}
	for _, i := range perm {
		dst = append(dst, flat[ends[i]:ends[i+1]]...)
	}
	f.sc.seqs.give(flat)
	return dst, nil
}

// Program is the compiled artifact of one query: the compiled body plus
// every declared function, by name and arity. A Program is immutable after
// compilation and engine-independent — all engine state is read from the
// context a run is given, all scratch lives in the run's frames — so one
// Program may execute concurrently on any number of engines.
type Program struct {
	nslots int
	nitems int
	body   cexpr
	funcs  map[funcKey]*cfunc
	// nholes is how many arguments the holed literals read (Literal.Hole).
	nholes int
}

// bind installs a run's argument vector in ctx; nil leaves every holed
// literal its own value.
func (p *Program) bind(ctx *context, holes []xdm.Atomic) error {
	if holes != nil && len(holes) < p.nholes {
		return fmt.Errorf("eval: template takes %d arguments, got %d", p.nholes, len(holes))
	}
	ctx.holes = holes
	return nil
}

// hole returns argument h of the run's vector as a sequence, boxed once per
// run into the run's scratch; own, the literal's value, when the run binds
// no vector or binds that value.
func (f *cframe) hole(h int, own xdm.Sequence) xdm.Sequence {
	holes := f.ctx.holes
	if holes == nil || xq.Same(holes[h], own[0].(xdm.Atomic)) {
		return own
	}
	if f.sc.boxed == nil {
		f.sc.boxed = make([]xdm.Sequence, len(holes))
	}
	if f.sc.boxed[h] == nil {
		f.sc.boxed[h] = xdm.Singleton(holes[h])
	}
	return f.sc.boxed[h]
}

// holeAtoms is argument h of the run's vector as a comparison operand's
// atoms, or c when h < 0 or the run binds no vector.
func (f *cframe) holeAtoms(h int, c []xdm.Atomic) []xdm.Atomic {
	if h < 0 || f.ctx.holes == nil {
		return c
	}
	return f.ctx.holes[h : h+1 : h+1]
}

// cfunc is one compiled declared function: its eager body, and the streamed
// form of a function that returns item()*, nil for any other return type.
type cfunc struct {
	decl   *xq.FuncDecl
	nslots int
	nitems int
	body   cexpr
	emit   cemit
}

// undeclared is the fault of calling a function the query does not declare.
func undeclared(name string, arity int) error {
	return fmt.Errorf("eval: function %s#%d not declared", name, arity)
}

// call runs a compiled declared function: parameters type-check into the
// first frame slots, then the body runs. Without emit the result type-checks
// and comes back. With emit a body with a streamed form streams into it, and
// any other evaluates whole, type-checks and is emitted once. sc is the
// caller's scratch, nil for a call from outside a run.
func (cf *cfunc) call(ctx *context, sc *cscratch, args []xdm.Sequence, emit func(xdm.Sequence) error) (xdm.Sequence, error) {
	f := newFrame(ctx, cf.nslots, cf.nitems, sc)
	for i, p := range cf.decl.Params {
		if err := checkSeqType(args[i], p.Type); err != nil {
			return nil, fmt.Errorf("eval: %s($%s): %w", cf.decl.Name, p.Name, err)
		}
		f.slots[i] = args[i]
	}
	if emit != nil && cf.emit != nil {
		return nil, cf.emit(f, emit)
	}
	res, err := cf.body(f, nil)
	if err != nil {
		return nil, err
	}
	if err := checkSeqType(res, cf.decl.Return); err != nil {
		return nil, fmt.Errorf("eval: %s result: %w", cf.decl.Name, err)
	}
	if emit != nil {
		return nil, emit(res)
	}
	return res, nil
}

// ------------------------------------------------------------- path runtime --

// cpath is one compiled path: where it starts — the value of input, else
// the item in item slot slot, else (slot -1) the focus — and its steps.
type cpath struct {
	input cexpr
	slot  int
	steps []cstep
}

// cstep is one compiled path step: pre-resolved axis/test plus compiled
// predicates.
type cstep struct {
	axis   xq.Axis
	test   xq.NodeTest
	filter bool
	preds  []cpred
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

// walkPath runs the given steps of path p in borrowed scratch and returns
// the value reached: nodes when isNodes (the last step run was a node step,
// or the path starts at a node), items otherwise. The caller gives the
// returned buffer back.
func (f *cframe) walkPath(p *cpath, steps []cstep) (items xdm.Sequence, nodes []*xdm.Node, isNodes bool, err error) {
	sc := f.sc
	switch {
	case p.input != nil:
		if items, err = p.input(f, sc.seqs.take()); err != nil {
			return nil, nil, false, err
		}
	default:
		it := f.item
		if p.slot >= 0 {
			it = f.items[p.slot]
		} else if it == nil {
			return nil, nil, false, fmt.Errorf("eval: relative path with undefined context item")
		}
		if n, ok := it.(*xdm.Node); ok && (len(steps) == 0 || !steps[0].filter) {
			nodes, isNodes = append(sc.nodes.take(), n), true
		} else {
			items = append(sc.seqs.take(), it)
		}
	}
	var spare []*xdm.Node
	for i := range steps {
		st := &steps[i]
		if st.filter {
			if isNodes {
				items = appendNodeItems(sc.seqs.take(), nodes)
				sc.nodes.give(nodes)
				nodes, isNodes = nil, false
			}
			if items, err = runFilter(f, items, st.preds, false); err != nil {
				return nil, nil, false, err
			}
			continue
		}
		if !isNodes {
			var ok bool
			if nodes, ok = appendNodes(sc.nodes.take(), items); !ok {
				return nil, nil, false, fmt.Errorf("eval: path step %s::%s applied to atomic value", st.axis, st.test)
			}
			sc.seqs.give(items)
			items, isNodes = nil, true
		}
		if spare == nil {
			spare = sc.nodes.take()
		}
		gathered, err := f.runStep(nodes, st, spare[:0])
		if err != nil {
			return nil, nil, false, err
		}
		spare, nodes = nodes[:0], gathered
	}
	if spare != nil {
		sc.nodes.give(spare)
	}
	return items, nodes, isNodes, nil
}

// runPath appends the value of a compiled path to dst.
func (f *cframe) runPath(dst xdm.Sequence, p *cpath) (xdm.Sequence, error) {
	if err := f.ctx.stop.check(); err != nil {
		return nil, err
	}
	items, nodes, isNodes, err := f.walkPath(p, p.steps)
	if err != nil {
		return nil, err
	}
	if !isNodes {
		dst = append(dst, items...)
		f.sc.seqs.give(items)
		return dst, nil
	}
	if dst == nil && len(nodes) > 0 {
		dst = make(xdm.Sequence, 0, len(nodes))
	}
	dst = appendNodeItems(reserve(dst, len(nodes)), nodes)
	f.sc.nodes.give(nodes)
	return dst, nil
}

// emitPath is the streamed form of a compiled path whose last step is
// streamable: the leading steps run eagerly (they are context for the last
// step, not output), and the last one hands emit each node as its axis walk
// reaches it, through its predicate, if any, with positions counted per
// context node — runStep's per-segment numbering. Ordered disjoint context
// nodes concatenate their segments in distinct document order; an
// overlapping or unordered context needs runStep's sort barrier, so that
// step is emitted whole.
func (f *cframe) emitPath(p *cpath, emit func(xdm.Sequence) error) error {
	if err := f.ctx.stop.check(); err != nil {
		return err
	}
	sc := f.sc
	last := &p.steps[len(p.steps)-1]
	items, nodes, isNodes, err := f.walkPath(p, p.steps[:len(p.steps)-1])
	if err != nil {
		return err
	}
	if !isNodes {
		var ok bool
		if nodes, ok = appendNodes(sc.nodes.take(), items); !ok {
			return fmt.Errorf("eval: path step %s::%s applied to atomic value", last.axis, last.test)
		}
		sc.seqs.give(items)
	}
	out := sc.seqs.take()
	if len(nodes) > 1 && !xdm.OrderedDisjointNodes(nodes) {
		gathered, err := f.runStep(nodes, last, sc.nodes.take())
		if err == nil {
			err = emit(appendNodeItems(out, gathered))
		}
		if err != nil {
			return err
		}
		sc.nodes.give(gathered)
	} else {
		pos := 0
		visit := func(m *xdm.Node) (bool, error) {
			if len(last.preds) == 1 {
				pos++
				if keep, err := f.evalPred(last.preds[0], m, pos, 0); err != nil || !keep {
					return err == nil, err
				}
			}
			return true, emit(append(out[:0], m))
		}
		for _, n := range nodes {
			pos = 0
			if _, err := walkAxis(n, last.axis, last.test, f.ctx.stop, visit); err != nil {
				return err
			}
		}
	}
	sc.seqs.give(out)
	sc.nodes.give(nodes)
	return nil
}

func appendNodes(dst []*xdm.Node, s xdm.Sequence) ([]*xdm.Node, bool) {
	for _, it := range s {
		n, ok := it.(*xdm.Node)
		if !ok {
			return nil, false
		}
		dst = append(dst, n)
	}
	return dst, true
}

func appendNodeItems(dst xdm.Sequence, nodes []*xdm.Node) xdm.Sequence {
	for _, n := range nodes {
		dst = append(dst, n)
	}
	return dst
}

func appendAtoms(dst []xdm.Atomic, s xdm.Sequence) []xdm.Atomic {
	for _, it := range s {
		dst = append(dst, atomOf(it))
	}
	return dst
}

// runStep maps one compiled non-filter step over its context nodes: per
// context node, gather the axis candidates and apply the step predicates
// within that segment, then re-establish distinct document order across
// segments. dst is the gather buffer (walkPath passes its ping-pong scratch
// slice). A single context node yields document-ordered, duplicate-free
// results on every axis; only unions across context nodes can disturb order
// (and SortDocOrder detects ordered unions in O(n)).
func (f *cframe) runStep(nodes []*xdm.Node, st *cstep, dst []*xdm.Node) ([]*xdm.Node, error) {
	gathered := dst
	for _, n := range nodes {
		start := len(gathered)
		var err error
		if gathered, err = gatherAxis(gathered, n, st.axis, st.test, f.ctx.stop); err != nil {
			return nil, err
		}
		if len(st.preds) > 0 {
			seg, err := runFilter(f, gathered[start:], st.preds, st.axis.Reverse())
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

// runFilter applies compiled predicates to items, which the caller owns,
// compacting them in place: a step's candidates for one context node, in
// document order, or a filter expression's sequence. A predicate evaluating
// to a number selects by position; otherwise its effective boolean value
// filters. Positions count from the context node outward, so against
// document order on a reverse axis. The frame's focus is set and restored
// around each predicate evaluation.
func runFilter[T xdm.Item](f *cframe, items []T, preds []cpred, reverse bool) ([]T, error) {
	for _, pred := range preds {
		kept := items[:0]
		size := len(items)
		for i, it := range items {
			pos := i + 1
			if reverse {
				pos = size - i
			}
			keep, err := f.evalPred(pred, it, pos, size)
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
// value anyway. size 0 means "streaming, size unobservable": stepStreamable
// admits no predicate that calls last().
func (f *cframe) evalPred(pred cpred, it xdm.Item, pos, size int) (bool, error) {
	oi, op, os := f.item, f.pos, f.size
	f.item, f.pos, f.size = it, pos, size
	var keep bool
	var err error
	if pred.b != nil {
		keep, err = pred.b(f)
	} else {
		var s xdm.Sequence
		if s, err = pred.gen(f, f.sc.seqs.take()); err == nil {
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
			f.sc.seqs.give(s)
		}
	}
	f.item, f.pos, f.size = oi, op, os
	return keep, err
}

// existsCompare decides a general comparison between the downward path rooted
// at n and pre-atomized constant atoms ca, streaming: every node the step
// chain reaches atomizes in place and compares against each constant, and the
// scan unwinds at the first satisfying pair. constLeft orients the pairs
// (constant on the left feeds generalPair's first argument). The deadline
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
			if cmp, ok := generalPair(l, r); ok && compareSatisfies(op, cmp) {
				return true, nil
			}
		}
		return false, nil
	}
	found := false
	_, err := walkAxis(n, st.Axis, st.Test, f.ctx.stop, func(m *xdm.Node) (bool, error) {
		var err error
		found, err = check(m)
		return !found, err
	})
	return found, err
}

// stepStreamable reports whether a path's last step can stream: it is a
// node step, not a filter, with at most one predicate, which does not
// observe last() (position() is fine — it accumulates incrementally), and
// its axis enumerates descendants of its context node only, so that ordered
// disjoint context nodes concatenate in document order. Several predicate
// layers would each need the whole segment first: interleaved per
// candidate, a later layer could fault before an earlier one does.
func stepStreamable(st *xq.Step) bool {
	if st.Filter || len(st.Preds) > 1 || len(st.Preds) == 1 && usesLast(st.Preds[0]) {
		return false
	}
	switch st.Axis {
	case xq.AxisChild, xq.AxisAttribute, xq.AxisSelf, xq.AxisDescendant, xq.AxisDescendantOrSelf:
		return true
	}
	return false
}

// usesLast reports whether the expression syntactically calls last().
// Declared functions cannot observe the caller's focus (a call drops it), so
// scanning the predicate expression itself is sufficient. The scan is
// conservative: a last() in a nested step's own predicate (whose focus is
// that step's, not ours) also disables streaming.
func usesLast(e xq.Expr) bool {
	found := false
	xq.Walk(e, func(sub xq.Expr) bool {
		if fc, ok := sub.(*xq.FunCall); ok {
			if strings.TrimPrefix(fc.Name, "fn:") == "last" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// -------------------------------------------------------------- constructors --

// celem is a compiled element constructor: its name (static, or computed by
// nameExpr) and its content in order.
type celem struct {
	name     string
	nameExpr cexpr
	content  []ccontent
}

// ccontent is one content expression of a compiled element constructor;
// exactly one field is set. A nested direct element (elem) or text (text:
// the text constructor's content) constructor builds in place.
type ccontent struct {
	attr *cattr
	elem *celem
	text cexpr
	expr cexpr
}

// cattr is a compiled attribute constructor: its name (static, or computed
// by nameExpr) and its value parts — folded to value at compile time when
// every part is constant.
type cattr struct {
	name     string
	nameExpr cexpr
	parts    []cexpr
	value    string
	constant bool
}

func (fc *fnCompiler) compileElem(v *xq.ElemConstructor, sc *scope) *celem {
	ce := &celem{name: v.Name}
	if v.NameExpr != nil {
		ce.nameExpr = fc.compile(v.NameExpr, sc)
	}
	for _, x := range v.Content {
		var c ccontent
		switch x := x.(type) {
		case *xq.AttrConstructor:
			c.attr = fc.compileAttr(x, sc)
		case *xq.ElemConstructor:
			c.elem = fc.compileElem(x, sc)
		case *xq.TextConstructor:
			c.text = fc.compile(x.Content, sc)
		default:
			c.expr = fc.compile(x, sc)
		}
		ce.content = append(ce.content, c)
	}
	return ce
}

func (fc *fnCompiler) compileAttr(v *xq.AttrConstructor, sc *scope) *cattr {
	ca := &cattr{name: v.Name, constant: true}
	if v.NameExpr != nil {
		ca.nameExpr = fc.compile(v.NameExpr, sc)
	}
	parts := make([]string, 0, len(v.Value))
	for _, ve := range v.Value {
		ca.parts = append(ca.parts, fc.compile(ve, sc))
		if !ca.constant || !fc.isConst(ve) {
			ca.constant = false
			continue
		}
		s, err := fc.fold(ve)
		ca.constant = err == nil
		parts = append(parts, joinAtoms(s))
	}
	if ca.constant {
		ca.value = strings.Join(parts, "")
	}
	return ca
}

// constructElem builds the element e describes into a new constructed tree.
func (f *cframe) constructElem(e *celem) (*xdm.Node, error) {
	b := f.sc.builder()
	mark := len(b.ev)
	if err := f.buildElem(b, e, false); err != nil {
		b.abort(mark)
		return nil, err
	}
	return b.finish(mark), nil
}

// buildElem describes element e to the builder: its name, then its content
// in order — attribute constructors, nested element and text constructors
// (built in place), and enclosed expressions.
func (f *cframe) buildElem(b *treeBuilder, e *celem, nested bool) error {
	if err := f.ctx.stop.check(); err != nil {
		return err
	}
	name := e.name
	if e.nameExpr != nil {
		s, err := e.nameExpr(f, f.sc.seqs.take())
		if err != nil {
			return err
		}
		if name, err = singletonString(s, "element name"); err != nil {
			return err
		}
		f.sc.seqs.give(s)
	}
	b.open(name, nested)
	for _, c := range e.content {
		switch {
		case c.attr != nil:
			name, value, err := f.attrParts(c.attr)
			if err != nil {
				return err
			}
			if err := b.constructedAttr(name, value); err != nil {
				return err
			}
		case c.elem != nil:
			if err := f.buildElem(b, c.elem, true); err != nil {
				return err
			}
		default:
			ce := c.expr
			if c.text != nil {
				ce = c.text
			}
			s, err := ce(f, f.sc.seqs.take())
			if err != nil {
				return err
			}
			if c.text != nil {
				b.text(joinAtoms(s))
			} else if err := b.content(s); err != nil {
				return err
			}
			f.sc.seqs.give(s)
		}
	}
	b.close()
	return nil
}

// attrParts evaluates an attribute constructor's name and value.
func (f *cframe) attrParts(a *cattr) (name, value string, err error) {
	name = a.name
	if a.nameExpr != nil {
		s, err := a.nameExpr(f, f.sc.seqs.take())
		if err != nil {
			return "", "", err
		}
		if name, err = singletonString(s, "attribute name"); err != nil {
			return "", "", err
		}
		f.sc.seqs.give(s)
	}
	if a.constant {
		return name, a.value, nil
	}
	var parts []string
	for _, pe := range a.parts {
		s, err := pe(f, f.sc.seqs.take())
		if err != nil {
			return "", "", err
		}
		parts = append(parts, joinAtoms(s))
		f.sc.seqs.give(s)
	}
	return name, strings.Join(parts, ""), nil
}
