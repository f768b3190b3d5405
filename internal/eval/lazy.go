package eval

// Pull-based lazy evaluation. evalSeq is the lazy twin of context.eval: it
// returns an xdm.Seq whose items are produced on demand, so a consumer (most
// importantly the streaming XRPC server) can ship the first items of a result
// while the rest is still being computed, and peak buffering stays bounded by
// what the consumer holds rather than by the result size.
//
// The laziness contract, also documented in DESIGN.md:
//
//   - Sequence construction (a, b), let, if/else, typeswitch and FLWOR bodies
//     without order-by stream: items of earlier parts/iterations are yielded
//     before later parts are evaluated.
//   - The final step of a path streams when it provably preserves distinct
//     document order without a sort barrier: a downward axis (child,
//     attribute, self, descendant, descendant-or-self) over context nodes
//     that are already in document order with disjoint subtrees, or a filter
//     step. Predicates stream positionally — they may call position() but not
//     last(), which needs the full candidate count.
//   - Everything else — sorting (order by), reverse axes, node-set operators,
//     aggregates, overlapping path contexts — materializes exactly as the
//     eager evaluator does, then replays. Laziness never changes the produced
//     items, only when they are produced.
//
// Deadlines keep working mid-stream: every producer consults the shared
// stopCheck as it runs, so a deadline abort surfaces at the pull site as
// ErrDeadlineExceeded after a (valid) prefix of the result.

import (
	"fmt"
	"strings"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// QuerySeq normalizes a parsed query and returns its result as a lazy
// sequence. Nothing is evaluated until the sequence is pulled.
func (e *Engine) QuerySeq(q *xq.Query) (xdm.Seq, error) {
	if err := xq.Normalize(q); err != nil {
		return nil, err
	}
	ctx := e.newContext(q.Funcs)
	if p := e.program(q); p != nil {
		return p.runSeq(ctx), nil
	}
	return ctx.evalSeq(q.Body), nil
}

// evalSeq returns a pull-based view of e. Expressions with a natural
// streaming order get dedicated lazy cases; everything else defers to the
// eager evaluator and replays its result, so the two paths cannot diverge on
// semantics — only on when work happens.
func (c *context) evalSeq(e xq.Expr) xdm.Seq {
	switch v := e.(type) {
	case nil:
		return xdm.EmptySeq()
	case *xq.SeqExpr:
		return func(yield func(xdm.Item) bool) error {
			if err := c.stop.check(); err != nil {
				return err
			}
			stopped := false
			for _, part := range v.Items {
				err := c.evalSeq(part)(func(it xdm.Item) bool {
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
	case *xq.LetExpr:
		return func(yield func(xdm.Item) bool) error {
			if err := c.stop.check(); err != nil {
				return err
			}
			bound, err := c.eval(v.Bind)
			if err != nil {
				return err
			}
			return c.bind(v.Var, bound).evalSeq(v.Return)(yield)
		}
	case *xq.IfExpr:
		return func(yield func(xdm.Item) bool) error {
			if err := c.stop.check(); err != nil {
				return err
			}
			cond, err := c.eval(v.Cond)
			if err != nil {
				return err
			}
			b, ok := cond.EffectiveBoolean()
			if !ok {
				return fmt.Errorf("eval: invalid effective boolean value in if condition")
			}
			if b {
				return c.evalSeq(v.Then)(yield)
			}
			return c.evalSeq(v.Else)(yield)
		}
	case *xq.TypeswitchExpr:
		return func(yield func(xdm.Item) bool) error {
			if err := c.stop.check(); err != nil {
				return err
			}
			op, err := c.eval(v.Operand)
			if err != nil {
				return err
			}
			for _, cs := range v.Cases {
				if checkSeqType(op, cs.Type) == nil {
					cc := c
					if cs.Var != "" {
						cc = c.bind(cs.Var, op)
					}
					return cc.evalSeq(cs.Return)(yield)
				}
			}
			cc := c
			if v.DefaultVar != "" {
				cc = c.bind(v.DefaultVar, op)
			}
			return cc.evalSeq(v.Default)(yield)
		}
	case *xq.ForExpr:
		// The remote special cases (bulk and scatter dispatch) and order-by
		// loops gather whole results by design; evalFor owns them.
		if _, isRPC := v.Return.(*xq.XRPCExpr); (isRPC && c.eng.Remote != nil) || len(v.OrderBy) > 0 {
			return c.deferEval(e)
		}
		return c.forSeq(v)
	case *xq.PathExpr:
		return c.pathSeq(v)
	default:
		return c.deferEval(e)
	}
}

// deferEval wraps the eager evaluator in a Seq: nothing runs until the first
// pull, then the whole subexpression materializes and replays.
func (c *context) deferEval(e xq.Expr) xdm.Seq {
	return func(yield func(xdm.Item) bool) error {
		s, err := c.eval(e)
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

// forSeq streams a FLWOR loop without order-by: each iteration's body items
// are yielded before the next input item is even pulled. The loop-invariant
// hoisting heuristic of evalFor (only rewrite loops with more than 4
// iterations) is preserved by buffering the first inputs until the heuristic
// decides, so the lazy and eager paths hoist identically.
func (c *context) forSeq(v *xq.ForExpr) xdm.Seq {
	return func(yield func(xdm.Item) bool) error {
		if err := c.stop.check(); err != nil {
			return err
		}
		ret := v.Return
		bound := c
		hoisted := false
		runBody := func(it xdm.Item) (bool, error) {
			ic := bound.bind(v.Var, xdm.Singleton(it))
			stopped := false
			err := ic.evalSeq(ret)(func(x xdm.Item) bool {
				if !yield(x) {
					stopped = true
					return false
				}
				return true
			})
			return !stopped, err
		}
		var buf xdm.Sequence // first inputs held until the hoist decision
		var inErr error
		stopped := false
		err := c.evalSeq(v.In)(func(it xdm.Item) bool {
			if !hoisted {
				buf = append(buf, it)
				if len(buf) <= 4 {
					return true
				}
				hoisted = true
				if h, bindings := hoistInvariantOperands(ret, v.Var); len(bindings) > 0 {
					ret = h
					for _, b := range bindings {
						val, err := c.eval(b.expr)
						if err != nil {
							inErr = err
							return false
						}
						bound = bound.bindHoisted(b.name, val)
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

// pathSeq streams the final step of a path when that is provably
// order-preserving; the leading steps always evaluate eagerly through
// evalPath (they are context for the last step, not output). When the final
// step cannot stream, the whole path defers to the eager evaluator.
func (c *context) pathSeq(pe *xq.PathExpr) xdm.Seq {
	n := len(pe.Steps)
	if n == 0 || !stepStreamable(pe.Steps[n-1]) {
		return c.deferEval(pe)
	}
	last := pe.Steps[n-1]
	return func(yield func(xdm.Item) bool) error {
		if err := c.stop.check(); err != nil {
			return err
		}
		head := *pe
		head.Steps = pe.Steps[:n-1]
		cur, err := c.evalPath(&head)
		if err != nil {
			return err
		}
		if last.Filter {
			return c.filterItemsSeq(cur, last.Preds, yield)
		}
		nodes, ok := cur.Nodes()
		if !ok {
			return fmt.Errorf("eval: path step %s::%s applied to atomic value", last.Axis, last.Test)
		}
		if len(nodes) > 1 && !xdm.OrderedDisjointNodes(nodes) {
			// Overlapping or unordered context (e.g. the child step of a
			// desugared //): a sort barrier is required, so materialize.
			gathered, err := c.evalStep(nodes, last, nil)
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
		return c.streamStep(nodes, last, yield)
	}
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
// Declared functions cannot observe the caller's focus (callDeclared drops
// it), so scanning the predicate expression itself is sufficient. The scan is
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

// nodeSink consumes one candidate node of a streamed step. It returns false
// to end the walk early (consumer satisfied) and an error to abort it.
type nodeSink func(*xdm.Node) (bool, error)

// streamStep yields the final step's result incrementally: per context node,
// walk the axis in document order and push candidates through the predicate
// chain straight to the consumer. Position counters reset per context node,
// matching the eager per-segment predicate semantics. The concatenation of
// segments is in distinct document order by the OrderedDisjointNodes
// precondition, so no sort barrier is needed.
func (c *context) streamStep(nodes []*xdm.Node, st *xq.Step, yield func(xdm.Item) bool) error {
	for _, n := range nodes {
		sink := nodeSink(func(m *xdm.Node) (bool, error) {
			return yield(m), nil
		})
		for i := len(st.Preds) - 1; i >= 0; i-- {
			sink = c.predSink(st.Preds[i], sink)
		}
		cont, err := c.walkAxis(n, st.Axis, st.Test, sink)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return nil
}

// predSink wraps a sink with one streaming predicate: position is the
// 1-based count of candidates reaching this predicate (i.e. survivors of the
// preceding ones), exactly the eager filterPreds numbering. The context size
// is left unset — stepStreamable guarantees the predicate never calls
// last(), the only observer of size.
func (c *context) predSink(pred xq.Expr, next nodeSink) nodeSink {
	pos := 0
	return func(n *xdm.Node) (bool, error) {
		pos++
		keep, err := c.evalStreamPred(pred, n, pos)
		if err != nil {
			return false, err
		}
		if !keep {
			return true, nil
		}
		return next(n)
	}
}

// evalStreamPred decides one candidate of a streaming predicate: numeric
// values select by position, everything else by effective boolean value.
func (c *context) evalStreamPred(pred xq.Expr, it xdm.Item, pos int) (bool, error) {
	pc := c.withItem(it, pos, 0)
	s, err := pc.eval(pred)
	if err != nil {
		return false, err
	}
	if len(s) == 1 {
		if a, isAtom := s[0].(xdm.Atomic); isAtom && a.IsNumeric() {
			return int(a.Number()) == pos, nil
		}
	}
	b, ok := s.EffectiveBoolean()
	if !ok {
		return false, fmt.Errorf("eval: invalid predicate value")
	}
	return b, nil
}

// filterItemsSeq streams a final filter step over a materialized input
// sequence: positions count over the whole sequence per predicate layer, as
// in the eager filterItems.
func (c *context) filterItemsSeq(items xdm.Sequence, preds []xq.Expr, yield func(xdm.Item) bool) error {
	sink := func(it xdm.Item) (bool, error) {
		return yield(it), nil
	}
	for i := len(preds) - 1; i >= 0; i-- {
		pred, next := preds[i], sink
		pos := 0
		sink = func(it xdm.Item) (bool, error) {
			pos++
			keep, err := c.evalStreamPred(pred, it, pos)
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
		if err := c.stop.check(); err != nil {
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

// walkAxis enumerates the axis of one context node in document order,
// feeding matching nodes to the sink. It returns false when the sink ended
// the walk early. The deadline check runs per visited node — a streamed huge
// step is exactly the evaluation a budget must be able to cut mid-flight.
func (c *context) walkAxis(n *xdm.Node, axis xq.Axis, test xq.NodeTest, sink nodeSink) (bool, error) {
	emit := func(m *xdm.Node) (bool, error) {
		if err := c.stop.check(); err != nil {
			return false, err
		}
		if !matchTest(m, axis, test) {
			return true, nil
		}
		return sink(m)
	}
	switch axis {
	case xq.AxisChild:
		if n.Kind == xdm.AttributeNode {
			return true, nil
		}
		for _, ch := range n.Children {
			if cont, err := emit(ch); !cont || err != nil {
				return cont, err
			}
		}
	case xq.AxisAttribute:
		for _, a := range n.Attrs {
			if cont, err := emit(a); !cont || err != nil {
				return cont, err
			}
		}
	case xq.AxisSelf:
		return emit(n)
	case xq.AxisDescendant:
		for _, ch := range n.Children {
			if cont, err := walkSubtree(ch, emit); !cont || err != nil {
				return cont, err
			}
		}
	case xq.AxisDescendantOrSelf:
		return walkSubtree(n, emit)
	default:
		return false, fmt.Errorf("eval: axis %s is not streamable", axis)
	}
	return true, nil
}

// walkSubtree visits n and its descendants (attributes excluded) in document
// order with error/stop propagation — WalkDescendants with a fallible visitor.
func walkSubtree(n *xdm.Node, emit func(*xdm.Node) (bool, error)) (bool, error) {
	if cont, err := emit(n); !cont || err != nil {
		return cont, err
	}
	for _, ch := range n.Children {
		if cont, err := walkSubtree(ch, emit); !cont || err != nil {
			return cont, err
		}
	}
	return true, nil
}
