package eval

import (
	stdcontext "context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// constructorSeq numbers constructed trees; each element constructor creates
// a fresh document with an artificial URI, exactly the doc(vi::vi) treatment
// of §IV.
var constructorSeq atomic.Uint64

func newConstructedURI() string {
	return fmt.Sprintf("constructed://%d", constructorSeq.Add(1))
}

func (c *context) eval(e xq.Expr) (xdm.Sequence, error) {
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
		txt := xdm.NewText(joinAtoms(s))
		d := xdm.NewDocument(newConstructedURI())
		d.Root.AppendChild(txt)
		d.Freeze()
		return xdm.Singleton(txt), nil
	case *xq.DocConstructor:
		s, err := c.eval(v.Content)
		if err != nil {
			return nil, err
		}
		d := xdm.NewDocument(newConstructedURI())
		if err := appendContent(d.Root, s); err != nil {
			return nil, err
		}
		d.Freeze()
		return xdm.Singleton(d.Root), nil
	case *xq.FunCall:
		return c.evalFunCall(v)
	case *xq.ExecuteAt:
		return nil, fmt.Errorf("eval: unnormalized execute-at expression (call xq.Normalize first)")
	case *xq.XRPCExpr:
		return c.evalXRPC(v)
	}
	return nil, fmt.Errorf("eval: unsupported expression %T", e)
}

func (c *context) evalFor(v *xq.ForExpr) (xdm.Sequence, error) {
	in, err := c.eval(v.In)
	if err != nil {
		return nil, err
	}
	// Bulk RPC: a for-loop whose body is exactly a remote call with a
	// loop-invariant target ships all iterations in one message exchange.
	// A target that varies per iteration instead scatter-gathers: one Bulk
	// RPC per distinct destination peer, dispatched concurrently.
	if x, ok := v.Return.(*xq.XRPCExpr); ok && len(v.OrderBy) == 0 && c.eng.Remote != nil {
		if free := xq.FreeVars(x.Target); !free[v.Var] {
			return c.evalBulk(v, x, in)
		}
		return c.evalScatter(v, x, in)
	}
	// Hoist loop-invariant comparison operands: evaluating them once instead
	// of per iteration is the interpreter's stand-in for the loop-lifting
	// a compiling engine (Pathfinder) performs. Only applied to loops with
	// enough iterations to amortize the rewrite.
	ret := v.Return
	if len(in) > 4 {
		hoisted, bindings := hoistInvariantOperands(ret, v.Var)
		if len(bindings) > 0 {
			ret = hoisted
			for _, b := range bindings {
				val, err := c.eval(b.expr)
				if err != nil {
					return nil, err
				}
				c = c.bindHoisted(b.name, val)
			}
		}
	}
	type iteration struct {
		res  xdm.Sequence
		keys []xdm.Atomic
	}
	iters := make([]iteration, 0, len(in))
	for _, it := range in {
		ic := c.bind(v.Var, xdm.Singleton(it))
		var keys []xdm.Atomic
		for _, spec := range v.OrderBy {
			ks, err := ic.eval(spec.Key)
			if err != nil {
				return nil, err
			}
			atoms := ks.Atomize()
			if len(atoms) > 1 {
				return nil, fmt.Errorf("eval: order by key is a sequence")
			}
			key := xdm.NewString("") // empty key sorts first
			if len(atoms) == 1 {
				key = atoms[0]
			}
			keys = append(keys, key)
		}
		res, err := ic.eval(ret)
		if err != nil {
			return nil, err
		}
		iters = append(iters, iteration{res: res, keys: keys})
	}
	if len(v.OrderBy) > 0 {
		var sortErr error
		sort.SliceStable(iters, func(i, j int) bool {
			for k, spec := range v.OrderBy {
				cmp, ok := xdm.CompareAtomics(iters[i].keys[k], iters[j].keys[k])
				if !ok {
					sortErr = fmt.Errorf("eval: order by keys are not comparable")
					return false
				}
				if cmp == 0 {
					continue
				}
				if spec.Descending {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}
	out := xdm.Sequence{}
	for _, it := range iters {
		out = append(out, it.res...)
	}
	return out, nil
}

// evalBulk performs one bulk RPC for all iterations of the loop.
func (c *context) evalBulk(v *xq.ForExpr, x *xq.XRPCExpr, in xdm.Sequence) (xdm.Sequence, error) {
	if len(in) == 0 {
		return xdm.EmptySequence, nil
	}
	targetSeq, err := c.eval(x.Target)
	if err != nil {
		return nil, err
	}
	target, err := singletonString(targetSeq, "execute at target")
	if err != nil {
		return nil, err
	}
	iterations := make([][]xdm.Sequence, 0, len(in))
	for _, it := range in {
		ic := c.bind(v.Var, xdm.Singleton(it))
		params := make([]xdm.Sequence, len(x.Params))
		for i, p := range x.Params {
			val, ok := ic.lookup(p.Ref)
			if !ok {
				return nil, fmt.Errorf("eval: XRPC parameter references unbound $%s", p.Ref)
			}
			params[i] = val
		}
		iterations = append(iterations, params)
	}
	c.eng.mu.Lock()
	c.eng.Stats.BulkCalls++
	c.eng.mu.Unlock()
	results, err := c.eng.Remote.CallRemoteBulk(target, x, iterations)
	if err != nil {
		return nil, err
	}
	if len(results) != len(iterations) {
		return nil, fmt.Errorf("eval: bulk RPC returned %d results for %d calls", len(results), len(iterations))
	}
	out := xdm.Sequence{}
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}

// evalScatter executes a for-loop whose body is a remote call with a target
// that varies per iteration (`for $p in $peers return execute at $p {...}`).
// The target is evaluated per iteration, iterations are partitioned by
// destination peer (batches ordered by each peer's first appearance in the
// loop), one Bulk RPC per distinct peer is dispatched — concurrently when
// the RemoteCaller implements ScatterCaller — and the per-iteration results
// are reassembled in original loop order. Per-peer failures surface
// deterministically: the error of the batch whose peer appeared first in the
// loop wins, independent of goroutine scheduling.
func (c *context) evalScatter(v *xq.ForExpr, x *xq.XRPCExpr, in xdm.Sequence) (xdm.Sequence, error) {
	if len(in) == 0 {
		return xdm.EmptySequence, nil
	}
	batchOf := map[string]int{}
	var batches []ScatterBatch
	var indices [][]int // original iteration index per batch entry
	for i, it := range in {
		ic := c.bind(v.Var, xdm.Singleton(it))
		targetSeq, err := ic.eval(x.Target)
		if err != nil {
			return nil, err
		}
		target, err := singletonString(targetSeq, "execute at target")
		if err != nil {
			return nil, err
		}
		params := make([]xdm.Sequence, len(x.Params))
		for pi, p := range x.Params {
			val, ok := ic.lookup(p.Ref)
			if !ok {
				return nil, fmt.Errorf("eval: XRPC parameter references unbound $%s", p.Ref)
			}
			params[pi] = val
		}
		b, seen := batchOf[target]
		if !seen {
			b = len(batches)
			batchOf[target] = b
			batches = append(batches, ScatterBatch{Target: target, Replicas: c.eng.replicasFor(x, target)})
			indices = append(indices, nil)
		}
		batches[b].Iterations = append(batches[b].Iterations, params)
		indices[b] = append(indices[b], i)
	}
	if sc, ok := c.eng.Remote.(StreamCaller); ok {
		c.eng.mu.Lock()
		c.eng.Stats.BulkCalls += len(batches)
		c.eng.Stats.ScatterWaves++
		c.eng.Stats.StreamedWaves++
		c.eng.mu.Unlock()
		return c.gatherStreamed(sc, x, batches, indices, len(in))
	}
	results := make([][]xdm.Sequence, len(batches))
	errs := make([]error, len(batches))
	if sc, ok := c.eng.Remote.(ScatterCaller); ok {
		c.eng.mu.Lock()
		c.eng.Stats.BulkCalls += len(batches)
		c.eng.Stats.ScatterWaves++
		c.eng.mu.Unlock()
		results, errs = sc.CallRemoteScatter(x, batches)
		if len(results) != len(batches) || len(errs) != len(batches) {
			return nil, fmt.Errorf("eval: scatter dispatch returned %d results / %d errors for %d batches",
				len(results), len(errs), len(batches))
		}
	} else {
		for b, batch := range batches {
			c.eng.mu.Lock()
			c.eng.Stats.BulkCalls++
			c.eng.mu.Unlock()
			results[b], errs[b] = c.eng.Remote.CallRemoteBulk(batch.Target, x, batch.Iterations)
			if errs[b] != nil {
				break // earlier batches succeeded, so this error wins anyway
			}
		}
	}
	// The error of the batch whose peer appeared first in the loop wins —
	// unless that error is only the echo of the dispatcher cancelling the
	// lane because a later batch genuinely failed: then the genuine failure
	// (the first one in batch order) is the deterministic winner.
	errB := -1
	for b, err := range errs {
		if err == nil {
			continue
		}
		if errB < 0 {
			errB = b
		}
		if !errors.Is(err, stdcontext.Canceled) {
			errB = b
			break
		}
	}
	if errB >= 0 {
		return nil, fmt.Errorf("eval: scatter to %s: %w", batches[errB].Target, errs[errB])
	}
	perIter := make([]xdm.Sequence, len(in))
	for b := range batches {
		if len(results[b]) != len(batches[b].Iterations) {
			return nil, fmt.Errorf("eval: bulk RPC to %s returned %d results for %d calls",
				batches[b].Target, len(results[b]), len(batches[b].Iterations))
		}
		for k, res := range results[b] {
			perIter[indices[b][k]] = res
		}
	}
	out := xdm.Sequence{}
	for _, r := range perIter {
		out = append(out, r...)
	}
	return out, nil
}

// gatherStreamed consumes a streamed scatter dispatch: one bounded chunk
// channel per batch, drained in batch order — the same order the dispatcher
// admits lanes into its pool, so the lane being drained is always running
// and a lane blocked on its full buffer can never starve it. Chunks are
// decoded and placed into their loop positions as they arrive, overlapping
// still-running peers with local processing of finished lanes; beyond the
// accumulating result itself the originator holds only the in-flight
// chunks of each lane's bounded buffer.
//
// Errors surface deterministically as the first failing batch in batch
// order — the rule of the gather-whole path — because every earlier lane
// was drained to completion before the failing one was read.
func (c *context) gatherStreamed(sc StreamCaller, x *xq.XRPCExpr, batches []ScatterBatch, indices [][]int, total int) (xdm.Sequence, error) {
	lanes, cancel := sc.CallRemoteScatterStream(x, batches)
	defer cancel()
	if len(lanes) != len(batches) {
		return nil, fmt.Errorf("eval: streamed scatter returned %d lanes for %d batches", len(lanes), len(batches))
	}
	perIter := make([]xdm.Sequence, total)
	for b := range lanes {
		expect := len(batches[b].Iterations)
		cur, seen := 0, false
		for chunk := range lanes[b] {
			if chunk.Err != nil {
				return nil, fmt.Errorf("eval: scatter to %s: %w", batches[b].Target, chunk.Err)
			}
			switch {
			case chunk.Iteration == cur:
				seen = true
			case chunk.Iteration == cur+1 && seen:
				cur++
			case chunk.Iteration > cur:
				return nil, fmt.Errorf("eval: scatter to %s: stream skipped iteration %d",
					batches[b].Target, cur)
			default:
				return nil, fmt.Errorf("eval: scatter to %s: stream delivered iteration %d after %d",
					batches[b].Target, chunk.Iteration, cur)
			}
			if chunk.Iteration >= expect {
				return nil, fmt.Errorf("eval: scatter to %s: stream delivered iteration %d of %d",
					batches[b].Target, chunk.Iteration, expect)
			}
			i := indices[b][chunk.Iteration]
			perIter[i] = append(perIter[i], chunk.Items...)
		}
		if !seen || cur != expect-1 {
			return nil, fmt.Errorf("eval: scatter to %s: stream ended after iteration %d of %d",
				batches[b].Target, cur, expect)
		}
	}
	out := xdm.Sequence{}
	for _, r := range perIter {
		out = append(out, r...)
	}
	return out, nil
}

func (c *context) evalXRPC(x *xq.XRPCExpr) (xdm.Sequence, error) {
	if c.eng.Remote == nil {
		return nil, fmt.Errorf("eval: no remote caller configured for execute at")
	}
	targetSeq, err := c.eval(x.Target)
	if err != nil {
		return nil, err
	}
	target, err := singletonString(targetSeq, "execute at target")
	if err != nil {
		return nil, err
	}
	params := make([]xdm.Sequence, len(x.Params))
	for i, p := range x.Params {
		val, ok := c.lookup(p.Ref)
		if !ok {
			return nil, fmt.Errorf("eval: XRPC parameter references unbound $%s", p.Ref)
		}
		params[i] = val
	}
	c.eng.mu.Lock()
	c.eng.Stats.RemoteCalls++
	c.eng.mu.Unlock()
	return c.eng.Remote.CallRemote(target, x, params)
}

func (c *context) evalQuantified(v *xq.QuantifiedExpr) (xdm.Sequence, error) {
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

func (c *context) evalTypeswitch(v *xq.TypeswitchExpr) (xdm.Sequence, error) {
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

func (c *context) evalLogic(v *xq.LogicExpr) (xdm.Sequence, error) {
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

func (c *context) evalCompare(v *xq.CompareExpr) (xdm.Sequence, error) {
	l, err := c.eval(v.Left)
	if err != nil {
		return nil, err
	}
	r, err := c.eval(v.Right)
	if err != nil {
		return nil, err
	}
	if v.Op.IsNodeComp() {
		return nodeCompare(v.Op, l, r)
	}
	return xdm.Singleton(xdm.NewBoolean(generalCompareAtoms(v.Op, c.atomized(v.Left, l), c.atomized(v.Right, r)))), nil
}

// generalCompareAtoms decides the existential general comparison over
// atomized operands. Equality over larger sequences uses a hash set instead
// of the quadratic pair scan — the distributed semijoin queries of §VII
// compare hundreds of ids. Shared by the tree-walker and the compiled path.
func generalCompareAtoms(op xq.CompOp, la, ra []xdm.Atomic) bool {
	if op == xq.OpEq && len(la) > 4 && len(ra) > 4 {
		return hashedExistsEq(la, ra)
	}
	for _, a := range la {
		for _, b := range ra {
			cmp, ok := xdm.CompareAtomics(a, b)
			if !ok {
				continue // incomparable pair contributes false
			}
			if compareSatisfies(op, cmp) {
				return true
			}
		}
	}
	return false
}

// hashedExistsEq decides ∃a∈la, b∈ra: a eq b using hash sets, preserving the
// promotion rules of CompareAtomics: untyped values compare as strings
// against strings/untypeds and numerically against numerics; strings never
// equal numerics; booleans only equal booleans.
func hashedExistsEq(la, ra []xdm.Atomic) bool {
	strSet := map[string]bool{}     // string values of strings and untypeds
	numNumeric := map[string]bool{} // canonical numbers of numeric atoms
	numUntyped := map[string]bool{} // canonical numbers of parseable untypeds
	boolSet := map[bool]bool{}
	for _, b := range ra {
		switch {
		case b.T == xdm.TBoolean:
			boolSet[b.B] = true
		case b.IsNumeric():
			numNumeric[xdm.FormatDouble(b.Number())] = true
		case b.T == xdm.TUntyped:
			strSet[b.S] = true
			if f := b.Number(); !math.IsNaN(f) {
				numUntyped[xdm.FormatDouble(f)] = true
			}
		default:
			strSet[b.S] = true
		}
	}
	for _, a := range la {
		switch {
		case a.T == xdm.TBoolean:
			if boolSet[a.B] {
				return true
			}
		case a.IsNumeric():
			key := xdm.FormatDouble(a.Number())
			if numNumeric[key] || numUntyped[key] {
				return true
			}
		case a.T == xdm.TUntyped:
			if strSet[a.S] {
				return true
			}
			if f := a.Number(); !math.IsNaN(f) && numNumeric[xdm.FormatDouble(f)] {
				return true
			}
		default:
			if strSet[a.S] {
				return true
			}
		}
	}
	return false
}

func compareSatisfies(op xq.CompOp, cmp int) bool {
	switch op {
	case xq.OpEq:
		return cmp == 0
	case xq.OpNe:
		return cmp != 0
	case xq.OpLt:
		return cmp < 0
	case xq.OpLe:
		return cmp <= 0
	case xq.OpGt:
		return cmp > 0
	case xq.OpGe:
		return cmp >= 0
	}
	return false
}

func nodeCompare(op xq.CompOp, l, r xdm.Sequence) (xdm.Sequence, error) {
	if len(l) == 0 || len(r) == 0 {
		return xdm.EmptySequence, nil
	}
	if len(l) != 1 || len(r) != 1 {
		return nil, fmt.Errorf("eval: node comparison requires singleton operands")
	}
	ln, lok := l[0].(*xdm.Node)
	rn, rok := r[0].(*xdm.Node)
	if !lok || !rok {
		return nil, fmt.Errorf("eval: node comparison requires node operands")
	}
	var b bool
	switch op {
	case xq.OpIs:
		b = ln == rn
	case xq.OpBefore:
		b = xdm.Compare(ln, rn) < 0
	case xq.OpAfter:
		b = xdm.Compare(ln, rn) > 0
	}
	return xdm.Singleton(xdm.NewBoolean(b)), nil
}

func (c *context) evalArith(v *xq.ArithExpr) (xdm.Sequence, error) {
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

// arithCombine applies one arithmetic operator to atomized operands — the
// scalar kernel shared by the tree-walker and the compiled path, including
// the integer fast path and the exact zero-division faults.
func arithCombine(op xq.ArithOp, la, ra []xdm.Atomic) (xdm.Sequence, error) {
	if len(la) == 0 || len(ra) == 0 {
		return xdm.EmptySequence, nil
	}
	if len(la) != 1 || len(ra) != 1 {
		return nil, fmt.Errorf("eval: arithmetic over sequences")
	}
	a, b := la[0], ra[0]
	bothInt := a.T == xdm.TInteger && b.T == xdm.TInteger
	switch op {
	case xq.OpAdd, xq.OpSub, xq.OpMul, xq.OpMod:
		if bothInt {
			var res int64
			switch op {
			case xq.OpAdd:
				res = a.I + b.I
			case xq.OpSub:
				res = a.I - b.I
			case xq.OpMul:
				res = a.I * b.I
			case xq.OpMod:
				if b.I == 0 {
					return nil, fmt.Errorf("eval: integer mod by zero")
				}
				res = a.I % b.I
			}
			return xdm.Singleton(xdm.NewInteger(res)), nil
		}
		x, y := a.Number(), b.Number()
		var res float64
		switch op {
		case xq.OpAdd:
			res = x + y
		case xq.OpSub:
			res = x - y
		case xq.OpMul:
			res = x * y
		case xq.OpMod:
			res = math.Mod(x, y)
		}
		return xdm.Singleton(xdm.NewDouble(res)), nil
	case xq.OpDiv:
		y := b.Number()
		if y == 0 {
			return nil, fmt.Errorf("eval: division by zero")
		}
		return xdm.Singleton(xdm.NewDouble(a.Number() / y)), nil
	case xq.OpIDiv:
		y := b.Number()
		if y == 0 {
			return nil, fmt.Errorf("eval: integer division by zero")
		}
		return xdm.Singleton(xdm.NewInteger(int64(a.Number() / y))), nil
	}
	return nil, fmt.Errorf("eval: unknown arithmetic operator")
}

func (c *context) evalNodeSet(v *xq.NodeSetExpr) (xdm.Sequence, error) {
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

// nodeSetCombine applies one node-set operator to evaluated operands — the
// kernel shared by the tree-walker and the compiled path.
func nodeSetCombine(op xq.SetOp, l, r xdm.Sequence) (xdm.Sequence, error) {
	ln, ok := l.Nodes()
	if !ok {
		return nil, fmt.Errorf("eval: %s over non-node operand", op)
	}
	rn, ok := r.Nodes()
	if !ok {
		return nil, fmt.Errorf("eval: %s over non-node operand", op)
	}
	inRight := map[*xdm.Node]bool{}
	for _, n := range rn {
		inRight[n] = true
	}
	var out []*xdm.Node
	switch op {
	case xq.OpUnion:
		out = append(append(out, ln...), rn...)
	case xq.OpIntersect:
		for _, n := range ln {
			if inRight[n] {
				out = append(out, n)
			}
		}
	case xq.OpExcept:
		for _, n := range ln {
			if !inRight[n] {
				out = append(out, n)
			}
		}
	}
	return xdm.NodeSeq(xdm.SortDocOrder(out)), nil
}

func (c *context) evalFunCall(v *xq.FunCall) (xdm.Sequence, error) {
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
		return bi.fn(c, args)
	}
	return nil, fmt.Errorf("eval: unknown function %s#%d", v.Name, len(v.Args))
}

// ------------------------------------------------------------ constructors --

func (c *context) constructElement(v *xq.ElemConstructor) (*xdm.Node, error) {
	name := v.Name
	if v.NameExpr != nil {
		s, err := c.eval(v.NameExpr)
		if err != nil {
			return nil, err
		}
		nm, err := singletonString(s, "element name")
		if err != nil {
			return nil, err
		}
		name = nm
	}
	el := xdm.NewElement(name)
	seenChild := false
	for _, ce := range v.Content {
		if ac, ok := ce.(*xq.AttrConstructor); ok {
			a, err := c.constructAttribute(ac)
			if err != nil {
				return nil, err
			}
			if seenChild {
				return nil, fmt.Errorf("eval: attribute %s constructed after element content", a.Name)
			}
			el.SetAttr(a.Name, a.Text)
			continue
		}
		s, err := c.eval(ce)
		if err != nil {
			return nil, err
		}
		if err := appendContent(el, s); err != nil {
			return nil, err
		}
		if len(s) > 0 {
			seenChild = true
		}
	}
	d := xdm.NewDocument(newConstructedURI())
	d.Root.AppendChild(el)
	d.Freeze()
	return el, nil
}

func (c *context) constructAttribute(v *xq.AttrConstructor) (*xdm.Node, error) {
	name := v.Name
	if v.NameExpr != nil {
		s, err := c.eval(v.NameExpr)
		if err != nil {
			return nil, err
		}
		nm, err := singletonString(s, "attribute name")
		if err != nil {
			return nil, err
		}
		name = nm
	}
	var parts []string
	for _, ve := range v.Value {
		s, err := c.eval(ve)
		if err != nil {
			return nil, err
		}
		parts = append(parts, joinAtoms(s))
	}
	return xdm.NewAttr(name, strings.Join(parts, "")), nil
}

// appendContent copies evaluated content into a parent node under XQuery
// constructor semantics: nodes are deep-copied, adjacent atomics join with a
// single space into one text node, attribute nodes become attributes.
func appendContent(parent *xdm.Node, s xdm.Sequence) error {
	var pendingAtoms []string
	flush := func() {
		if len(pendingAtoms) > 0 {
			parent.AppendChild(xdm.NewText(strings.Join(pendingAtoms, " ")))
			pendingAtoms = nil
		}
	}
	for _, it := range s {
		switch n := it.(type) {
		case xdm.Atomic:
			pendingAtoms = append(pendingAtoms, n.ItemString())
		case *xdm.Node:
			flush()
			switch n.Kind {
			case xdm.AttributeNode:
				if len(parent.Children) > 0 {
					return fmt.Errorf("eval: attribute node after element content")
				}
				parent.SetAttr(n.Name, n.Text)
			case xdm.DocumentNode:
				for _, ch := range n.Children {
					parent.AppendChild(ch.Copy())
				}
			default:
				parent.AppendChild(n.Copy())
			}
		}
	}
	flush()
	return nil
}

func joinAtoms(s xdm.Sequence) string {
	parts := make([]string, 0, len(s))
	for _, a := range s.Atomize() {
		parts = append(parts, a.ItemString())
	}
	return strings.Join(parts, " ")
}

func singletonString(s xdm.Sequence, what string) (string, error) {
	if len(s) != 1 {
		return "", fmt.Errorf("eval: %s must be a single item, got %d", what, len(s))
	}
	return s[0].ItemString(), nil
}

// hoistBinding pairs a fresh internal variable with the invariant expression
// it replaces.
type hoistBinding struct {
	name string
	expr xq.Expr
}

var hoistSeq atomic.Uint64

// hoistPrefix starts the name of every hoisted operand's variable. It
// contains '#', which the query language cannot produce, so capture is
// impossible and a reference to one is recognizable by name.
const hoistPrefix = "#hoist"

// hoistInvariantOperands clones body and replaces comparison operands that
// do not depend on loopVar (nor on any variable bound inside body, nor on
// node construction or remote calls) with fresh variable references. The
// returned bindings are evaluated once by the caller. Fresh names contain
// '#', which the query language cannot produce, so capture is impossible.
func hoistInvariantOperands(body xq.Expr, loopVar string) (xq.Expr, []hoistBinding) {
	clone := xq.CloneExpr(body)
	var bindings []hoistBinding
	var visit func(e xq.Expr, bound map[string]bool)
	hoistable := func(e xq.Expr, bound map[string]bool) bool {
		switch e.(type) {
		case *xq.PathExpr, *xq.FunCall:
		default:
			return false
		}
		for name := range xq.FreeVars(e) {
			if name == loopVar || bound[name] {
				return false
			}
		}
		ok := true
		xq.Walk(e, func(sub xq.Expr) bool {
			switch v := sub.(type) {
			case *xq.ElemConstructor, *xq.AttrConstructor, *xq.TextConstructor,
				*xq.DocConstructor, *xq.XRPCExpr, *xq.ExecuteAt:
				ok = false // per-iteration node identity / remote calls
				return false
			case *xq.ContextItem, *xq.RootExpr:
				ok = false // reads the dynamic context item
				return false
			case *xq.PathExpr:
				if v.Input == nil {
					ok = false // relative path: starts at the context item
					return false
				}
			case *xq.FunCall:
				switch strings.TrimPrefix(v.Name, "fn:") {
				case "position", "last":
					ok = false // reads the dynamic focus
					return false
				}
			}
			return true
		})
		return ok
	}
	maybeHoist := func(slot *xq.Expr, bound map[string]bool) {
		if *slot == nil || !hoistable(*slot, bound) {
			return
		}
		name := hoistPrefix + strconv.FormatUint(hoistSeq.Add(1), 10)
		bindings = append(bindings, hoistBinding{name: name, expr: *slot})
		*slot = &xq.VarRef{Name: name}
	}
	withBound := func(bound map[string]bool, names ...string) map[string]bool {
		nb := make(map[string]bool, len(bound)+len(names))
		for k := range bound {
			nb[k] = true
		}
		for _, n := range names {
			if n != "" {
				nb[n] = true
			}
		}
		return nb
	}
	visit = func(e xq.Expr, bound map[string]bool) {
		switch v := e.(type) {
		case nil:
			return
		case *xq.CompareExpr:
			maybeHoist(&v.Left, bound)
			maybeHoist(&v.Right, bound)
			visit(v.Left, bound)
			visit(v.Right, bound)
		case *xq.ForExpr:
			visit(v.In, bound)
			inner := withBound(bound, v.Var)
			for _, sp := range v.OrderBy {
				visit(sp.Key, inner)
			}
			visit(v.Return, inner)
		case *xq.LetExpr:
			visit(v.Bind, bound)
			visit(v.Return, withBound(bound, v.Var))
		case *xq.QuantifiedExpr:
			visit(v.In, bound)
			visit(v.Satisfies, withBound(bound, v.Var))
		case *xq.TypeswitchExpr:
			visit(v.Operand, bound)
			for _, cs := range v.Cases {
				visit(cs.Return, withBound(bound, cs.Var))
			}
			visit(v.Default, withBound(bound, v.DefaultVar))
		case *xq.XRPCExpr:
			// Never hoist out of a shipped body: it evaluates on the remote
			// peer, where caller-side hoist bindings do not exist.
			visit(v.Target, bound)
		default:
			for _, ch := range xq.Children(e) {
				visit(ch, bound)
			}
		}
	}
	visit(clone, map[string]bool{})
	if len(bindings) == 0 {
		return body, nil
	}
	return clone, bindings
}
