package eval

// Runtime for compiled queries. compile.go lowers a normalized query into a
// Program: chains of pre-resolved closures over a flat slot frame. This file
// holds the runtime those closures execute against — the frame and its
// scratch, the calling convention for declared functions, the specialized
// path-step scanners, order-by loops and constructors.
//
// The correctness contract, enforced by FuzzCompiledVsTreeWalk: a compiled
// query produces byte-identical results AND byte-identical errors to the
// tree-walking evaluator. Every specialization below therefore mirrors the
// corresponding tree-walk routine exactly (same candidate order, same
// predicate numbering, same error strings) and shares its kernel where one
// exists (comparison, arithmetic, the order-by comparator, the constructor
// builder, the remote-dispatch routines). Only loops nested too deep to
// compile fall back to the tree-walker itself (see fnCompiler.fallback).

import (
	"errors"
	"fmt"
	"strings"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// Options selects optional engine behaviors.
type Options struct {
	// Compile makes the eager entry points (Query, EvalFunction*) lower a
	// query on its first use by this engine into chains of pre-resolved
	// closures (variables become frame slots, constants fold, downward path
	// steps become direct scans with fused predicates). It is the engine
	// primitive behind the differential oracle and the micro-benchmarks;
	// production code never sets it. Whatever its value, a query that already
	// carries a Program runs it — the caches that witness reuse (the service's
	// plan cache, the XRPC server's module cache) attach one to what they
	// retain — and the lazy entry point EvalFunctionSeqDeadline, whose only
	// executor is the compiled push form, lowers any other query on the
	// spot; an eager call of any other query tree-walks. Results and
	// errors are identical either way; only speed changes.
	Compile bool
}

// cexpr is a compiled expression in eager form, the twin of context.eval: it
// evaluates completely and appends its value to dst, returning the extended
// slice. With dst nil the result may share storage with a slot or a
// constant, so it comes back with capacity equal to its length (appendSeq):
// whoever appends to a value it got copies it first.
type cexpr func(f *cframe, dst xdm.Sequence) (xdm.Sequence, error)

// cseq is a compiled expression in push form, the one lazy executor: it
// hands its items to yield in order as it produces them. When yield
// returns false the producer stops and returns errHalt, which travels up to
// the consumer that asked to stop — the run's API boundary turns it into
// the nil of the xdm.Seq contract. Items are produced synchronously with
// the frame, so slot values are always the binding in scope.
type cseq func(f *cframe, yield func(xdm.Item) bool) error

// errHalt reports, inside compiled push code, that the consumer stopped.
var errHalt = errors.New("eval: sequence consumer stopped")

// halted maps the errHalt of a consumer that stopped early to the nil the
// xdm.Seq contract promises.
func halted(err error) error {
	if err == errHalt {
		return nil
	}
	return err
}

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
// typeswitch, hoisted or parameter binding holds a sequence (slots); a for
// or quantifier variable holds its one item (items). ctx carries the
// engine, static context and stopCheck; its vars chain is never used by
// compiled code (slots replace it) but is rebuilt on demand when a fallback
// closure re-enters the tree-walker.
type cframe struct {
	ctx   *context
	slots []xdm.Sequence
	items []xdm.Item
	item  xdm.Item
	pos   int
	size  int
	// atoms memoizes, per hoisted-operand slot, the atomized form of the
	// slot's value and its `=` index — the compiled twin of frame.atoms.
	// bindHoisted drops the entry whenever the loop that owns the slot
	// evaluates the operand anew. Indexed like slots; nil until first use.
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

// bindHoisted stores a freshly evaluated hoisted comparison operand.
func (f *cframe) bindHoisted(slot int, val xdm.Sequence) {
	f.slots[slot] = val
	if f.atoms != nil {
		f.atoms[slot] = atomMemo{}
	}
}

// hoist evaluates a loop's hoisted operands into their slots, in order.
func (f *cframe) hoist(binds []cexpr, slots []int) error {
	for i, hb := range binds {
		val, err := hb(f, nil)
		if err != nil {
			return err
		}
		f.bindHoisted(slots[i], val)
	}
	return nil
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
// memo, returned, for the hoisted slot given (hoist >= 0), else into a
// borrowed buffer (m == nil).
func (f *cframe) compareOperand(ce cexpr, hoist int) (a []xdm.Atomic, m *atomMemo, err error) {
	if hoist < 0 {
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
	m = &f.atoms[hoist]
	if m.atoms == nil {
		m.atoms = s.Atomize()
	}
	return m.atoms, m, nil
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

// loopInput is the prologue both forms of a compiled for loop share: the
// input evaluates whole into borrowed scratch (the caller gives it back),
// then a loop long enough to hoist (more than four items, evalFor's rule)
// binds its hoisted operands, reported by hoist.
func (f *cframe) loopInput(in cexpr, canHoist bool, binds []cexpr, slots []int) (s xdm.Sequence, hoist bool, err error) {
	if err := f.ctx.stop.check(); err != nil {
		return nil, false, err
	}
	if s, err = in(f, f.sc.seqs.take()); err != nil {
		return nil, false, err
	}
	if canHoist && len(s) > 4 {
		if err := f.hoist(binds, slots); err != nil {
			return nil, false, err
		}
		hoist = true
	}
	return s, hoist, nil
}

// orderLoop runs an order-by loop's iterations over in exactly as evalFor
// does — per iteration in input order its keys, then its body — sorts them
// with the shared comparator and appends their results to dst in sorted
// order. Keys and results accumulate in two flat buffers, so an iteration
// allocates nothing of its own.
func (f *cframe) orderLoop(dst, in xdm.Sequence, slot int, keys []cexpr, specs []xq.OrderSpec, body cexpr) (xdm.Sequence, error) {
	k := len(keys)
	iters := make([]orderedIteration, len(in))
	atoms := make([]xdm.Atomic, len(in)*k)
	flat, kb := f.sc.seqs.take(), f.sc.seqs.take()
	for i, it := range in {
		if err := f.ctx.stop.check(); err != nil {
			return nil, err
		}
		f.items[slot] = it
		ks := atoms[i*k : (i+1)*k : (i+1)*k]
		for j, key := range keys {
			var err error
			if kb, err = key(f, kb[:0]); err != nil {
				return nil, err
			}
			if ks[j], err = orderKey(kb); err != nil {
				return nil, err
			}
		}
		lo := len(flat)
		var err error
		if flat, err = body(f, flat); err != nil {
			return nil, err
		}
		// A later append may move flat; this window keeps the array it
		// was written to, which nothing writes again.
		iters[i] = orderedIteration{keys: ks, res: flat[lo:len(flat):len(flat)]}
	}
	f.sc.seqs.give(kb)
	if err := sortOrdered(iters, specs); err != nil {
		return nil, err
	}
	for _, it := range iters {
		dst = append(dst, it.res...)
	}
	f.sc.seqs.give(flat)
	return dst, nil
}

// Program is the compiled artifact of one query: the compiled body (eager
// and lazy forms) plus every declared function. A Program is immutable after
// compilation and engine-independent — all engine state is read from the
// context a run is given, all scratch lives in the run's frames — so one
// Program may execute concurrently on any number of engines.
type Program struct {
	nslots  int
	nitems  int
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

// FallbackSites reports how many nodes of each AST construct (xq type name:
// "ForExpr", for a loop nested too deep to compile) this Program hands back
// to the tree-walker. Callers must not modify the map.
func (p *Program) FallbackSites() map[string]int { return p.fallbacks }

// cfunc is one compiled declared function.
type cfunc struct {
	decl    *xq.FuncDecl
	nslots  int
	nitems  int
	body    cexpr
	bodySeq cseq
}

// run evaluates the program body eagerly under ctx.
func (p *Program) run(ctx *context) (xdm.Sequence, error) {
	return p.body(newFrame(ctx, p.nslots, p.nitems, nil), nil)
}

// callFunction invokes a declared function by name and arity — the compiled
// counterpart of EvalFunctionDeadline's scan, in the same declaration order.
func (p *Program) callFunction(ctx *context, name string, args []xdm.Sequence) (xdm.Sequence, error) {
	for _, cf := range p.order {
		if cf.decl.Name == name && len(cf.decl.Params) == len(args) {
			return cf.call(ctx, nil, args)
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
// callDeclared with slots in place of a bound chain. sc is the caller's
// scratch, nil for a call from outside a run.
func (cf *cfunc) call(ctx *context, sc *cscratch, args []xdm.Sequence) (xdm.Sequence, error) {
	f := newFrame(ctx, cf.nslots, cf.nitems, sc)
	for i, p := range cf.decl.Params {
		if err := checkSeqType(args[i], p.Type); err != nil {
			return nil, fmt.Errorf("eval: %s($%s): %w", cf.decl.Name, p.Name, err)
		}
		f.slots[i] = args[i]
	}
	res, err := cf.body(f, nil)
	if err != nil {
		return nil, err
	}
	if err := checkSeqType(res, cf.decl.Return); err != nil {
		return nil, fmt.Errorf("eval: %s result: %w", cf.decl.Name, err)
	}
	return res, nil
}

// callSeq is call with a streamed body: parameters check eagerly (faults
// beat frames), then the body streams when the declared occurrence is `*` —
// checking each item's type as it passes — and materializes-then-checks
// otherwise, since occurrence constraints need the whole result.
func (cf *cfunc) callSeq(ctx *context, args []xdm.Sequence) (xdm.Seq, error) {
	for i, p := range cf.decl.Params {
		if err := checkSeqType(args[i], p.Type); err != nil {
			return nil, fmt.Errorf("eval: %s($%s): %w", cf.decl.Name, p.Name, err)
		}
	}
	frame := func() *cframe {
		f := newFrame(ctx, cf.nslots, cf.nitems, nil)
		copy(f.slots, args)
		return f
	}
	if cf.decl.Return.Occur != xq.OccurStar {
		return func(yield func(xdm.Item) bool) error {
			res, err := cf.body(frame(), nil)
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
			return halted(cf.bodySeq(frame(), yield))
		}, nil
	}
	return func(yield func(xdm.Item) bool) error {
		var typeErr error
		err := cf.bodySeq(frame(), func(it xdm.Item) bool {
			if typeErr == nil && !itemMatches(it, cf.decl.Return.Item) {
				typeErr = fmt.Errorf("eval: %s result: item %v does not match type %s", cf.decl.Name, it, cf.decl.Return.Item)
			}
			// After a mismatch the body still runs to its end, yielding
			// nothing more: a fault of its own wins, as in call.
			return typeErr != nil || yield(it)
		})
		if err != nil {
			return halted(err)
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
	var val xdm.Sequence
	if sc.item {
		val = xdm.Singleton(f.items[sc.slot])
	} else {
		val = f.slots[sc.slot]
	}
	return &frame{name: sc.name, val: val, next: f.frameChain(sc.next)}
}

// ------------------------------------------------------------- path runtime --

// cpath is one compiled path: where it starts — the value of input, else
// the item in item slot slot, else (slot -1) the focus — and its steps.
type cpath struct {
	input cexpr
	slot  int
	steps []*cstep
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

// walkPath runs the given steps of path p — the mirror of evalPath — in
// borrowed scratch and returns the value reached: nodes when isNodes (the
// last step run was a node step, or the path starts at a node), items
// otherwise. The caller gives the returned buffer back.
func (f *cframe) walkPath(p *cpath, steps []*cstep) (items xdm.Sequence, nodes []*xdm.Node, isNodes bool, err error) {
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
	for _, st := range steps {
		if st.filter {
			if isNodes {
				items = appendNodeItems(sc.seqs.take(), nodes)
				sc.nodes.give(nodes)
				nodes, isNodes = nil, false
			}
			if items, err = f.runFilterItems(items, st.preds); err != nil {
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

// streamPath streams a compiled path whose final step is streamable: the
// leading steps run eagerly (they are context for the last step, not
// output), and the last one hands each node to the consumer as its axis
// walk reaches it. An overlapping or unordered context needs evalStep's sort
// barrier, so that step materializes first.
func (f *cframe) streamPath(p *cpath, yield func(xdm.Item) bool) error {
	sc := f.sc
	last := p.steps[len(p.steps)-1]
	items, nodes, isNodes, err := f.walkPath(p, p.steps[:len(p.steps)-1])
	if err != nil {
		return err
	}
	if last.filter {
		if isNodes {
			items = appendNodeItems(sc.seqs.take(), nodes)
			sc.nodes.give(nodes)
		}
		if err := f.streamFilterItems(items, last.preds, yield); err != nil {
			return err
		}
		sc.seqs.give(items)
		return nil
	}
	if !isNodes {
		var ok bool
		if nodes, ok = appendNodes(sc.nodes.take(), items); !ok {
			return fmt.Errorf("eval: path step %s::%s applied to atomic value", last.axis, last.test)
		}
		sc.seqs.give(items)
	}
	if len(nodes) > 1 && !xdm.OrderedDisjointNodes(nodes) {
		// Overlapping or unordered context: a sort barrier is required.
		gathered, err := f.runStep(nodes, last, sc.nodes.take())
		if err != nil {
			return err
		}
		sc.nodes.give(nodes)
		nodes = gathered
		for _, m := range nodes {
			if !yield(m) {
				return errHalt
			}
		}
	} else {
		for _, n := range nodes {
			if err := f.streamFrom(n, last, yield); err != nil {
				return err
			}
		}
	}
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

// runStep maps one compiled non-filter step over its context nodes — the
// mirror of evalStep, on the same axis scanner.
func (f *cframe) runStep(nodes []*xdm.Node, st *cstep, dst []*xdm.Node) ([]*xdm.Node, error) {
	gathered := dst
	for _, n := range nodes {
		start := len(gathered)
		var err error
		if gathered, err = gatherAxis(gathered, n, st.axis, st.test, f.ctx.stop); err != nil {
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
// over the whole sequence per predicate layer. It compacts items, which the
// caller owns, in place.
func (f *cframe) runFilterItems(items xdm.Sequence, preds []cpred) (xdm.Sequence, error) {
	for _, pred := range preds {
		kept := items[:0]
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

// streamFrom streams a compiled final step from one context node: walkAxis
// pushes each candidate through the step's predicate, if any, straight to
// the consumer, with positions counted per context node — evalStep's
// per-segment numbering. Several predicate layers run whole over the
// segment, one after another, as in evalStep: interleaved per candidate, a
// later layer could fault before an earlier one does. The concatenation of
// segments is in distinct document order by the OrderedDisjointNodes
// precondition, so no sort barrier is needed.
func (f *cframe) streamFrom(n *xdm.Node, st *cstep, yield func(xdm.Item) bool) error {
	stop := f.ctx.stop
	if len(st.preds) > 1 {
		seg, err := gatherAxis(f.sc.nodes.take(), n, st.axis, st.test, stop)
		if err == nil {
			seg, err = f.runFilterPreds(seg, st.preds)
		}
		if err != nil {
			return err
		}
		for _, m := range seg {
			if !yield(m) {
				return errHalt
			}
		}
		f.sc.nodes.give(seg)
		return nil
	}
	pos := 0
	return haltIf(walkAxis(n, st.axis, st.test, stop, func(m *xdm.Node) (bool, error) {
		if len(st.preds) == 1 {
			pos++
			if keep, err := f.evalPred(st.preds[0], m, pos, 0); err != nil || !keep {
				return err == nil, err
			}
		}
		return yield(m), nil
	}))
}

// stepStreamable reports whether a path step can stream: predicates must not
// observe last() (position() is fine — it accumulates incrementally), and a
// node step's axis must enumerate descendants of its context node only, so
// that ordered disjoint context nodes concatenate in document order.
func stepStreamable(st *xq.Step) bool {
	for _, p := range st.Preds {
		if usesLast(p) {
			return false
		}
	}
	if st.Filter {
		return true
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

// haltIf turns a walk's (continue, error) outcome into push-form's error:
// errHalt when the consumer ended the walk.
func haltIf(cont bool, err error) error {
	if err == nil && !cont {
		return errHalt
	}
	return err
}

// streamFilterItems streams a compiled final filter step over a materialized
// input: positions count over the whole sequence, as in filterItems, and
// several predicate layers run whole first, for streamFrom's reason.
func (f *cframe) streamFilterItems(items xdm.Sequence, preds []cpred, yield func(xdm.Item) bool) error {
	if len(preds) > 1 {
		var err error
		if items, err = f.runFilterItems(items, preds); err != nil {
			return err
		}
		preds = nil
	}
	for i, it := range items {
		if err := f.ctx.stop.check(); err != nil {
			return err
		}
		if len(preds) == 1 {
			keep, err := f.evalPred(preds[0], it, i+1, 0)
			if err != nil {
				return err
			}
			if !keep {
				continue
			}
		}
		if !yield(it) {
			return errHalt
		}
	}
	return nil
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
		s, err := foldEval(ve)
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

// buildElem describes element e to the builder — the compiled twin of
// context.buildElement, step for step.
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

// attrParts evaluates an attribute constructor's name and value — the
// compiled twin of context.attrParts.
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
