package core

import (
	"fmt"

	"distxq/internal/projection"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// Options tune the decomposition pipeline.
type Options struct {
	// CodeMotion enables distributed code motion (§IV): expressions that
	// solely depend on a function parameter move to the caller side as
	// additional parameters.
	CodeMotion bool
	// Shards lists shard maps describing logical documents partitioned
	// across peers; the decomposer then runs the shard-aware rewrite pass
	// (shardRewrite) before choosing ordinary decomposition points.
	Shards []ShardMap
	// KnownPeers, when non-nil, is the engine's peer set; Decompose fails
	// with ErrUnknownShardPeer when a shard map names a peer outside it.
	KnownPeers map[string]bool
}

// DefaultOptions is the configuration the evaluation section uses.
func DefaultOptions() Options { return Options{} }

// RemoteSite pairs an inserted XRPCExpr with its target host.
type RemoteSite struct {
	X    *xq.XRPCExpr
	Host string
}

// Plan is a decomposed query ready for execution: the rewritten query, the
// inserted remote calls, and (for pass-by-projection) the relative
// projection paths per call.
type Plan struct {
	Query     *xq.Query
	Strategy  Strategy
	Remotes   []RemoteSite
	Relatives map[*xq.XRPCExpr]projection.RelativePaths
	// Shards records the outcome of every shard-rewrite candidate: which
	// logical-document expressions became scatter loops and which fell back
	// to local evaluation over the materialized union, and why.
	Shards []ShardDecision
}

// Decompose rewrites q in place into an equivalent distributed query under
// the given strategy and returns the plan. The pipeline is: normalize
// (surface execute-at → XCore rule 27), alpha-rename, sink let-bindings,
// identify interesting decomposition points, insert XRPCExprs (§III-B),
// optionally apply code motion, and derive projection paths.
func Decompose(q *xq.Query, strat Strategy, opts Options) (*Plan, error) {
	if err := xq.Normalize(q); err != nil {
		return nil, err
	}
	if err := validateShards(opts); err != nil {
		return nil, err
	}
	plan := &Plan{Query: q, Strategy: strat, Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}}
	if strat == DataShipping {
		// No decomposition at all: logical documents materialize their union
		// at the originator (the resolver's data-shipping model).
		return plan, nil
	}
	AlphaRename(q)
	if len(opts.Shards) > 0 {
		dec, err := shardRewrite(q, strat, opts.Shards)
		if err != nil {
			return nil, err
		}
		plan.Shards = dec
	}
	SinkLets(q)
	g := Build(q.Body)
	chosen := choosePoints(g, strat)
	fcnSeq := 0
	for _, rs := range chosen {
		fcnSeq++
		x := insertXRPC(g, q, rs.expr, rs.host, fmt.Sprintf("fcn%d", fcnSeq))
		plan.Remotes = append(plan.Remotes, RemoteSite{X: x, Host: rs.host})
	}
	if opts.CodeMotion {
		applyCodeMotion(q, plan)
	}
	markReturned(q.Body)
	if strat == ByProjection {
		// Derive relative projection paths for every remote call in the
		// final query — decomposer-inserted sites and user-written
		// execute-at expressions alike.
		var all []*xq.XRPCExpr
		xq.Walk(q.Body, func(e xq.Expr) bool {
			if x, ok := e.(*xq.XRPCExpr); ok {
				all = append(all, x)
			}
			return true
		})
		if len(all) > 0 {
			a, err := projection.Analyze(q)
			if err != nil {
				return nil, err
			}
			for _, x := range all {
				plan.Relatives[x] = a.Relative(x, q.Body)
			}
		}
	}
	return plan, nil
}

// markReturned sets ReturnedOnly on every remote call in a tail position of e
// (e, a for's or let's return, an if branch, a comma operand): its value reaches
// the result unused (§VI-A's returned paths). Declared functions are not visited.
func markReturned(e xq.Expr) {
	switch v := e.(type) {
	case *xq.XRPCExpr:
		v.ReturnedOnly = true
	case *xq.ForExpr:
		markReturned(v.Return)
	case *xq.LetExpr:
		markReturned(v.Return)
	case *xq.IfExpr:
		markReturned(v.Then)
		markReturned(v.Else)
	case *xq.SeqExpr:
		for _, it := range v.Items {
			markReturned(it)
		}
	}
}

type point struct {
	expr xq.Expr
	host string
}

// choosePoints scans the d-graph in pre-order for interesting decomposition
// points, greedily taking the topmost and skipping their descendants.
func choosePoints(g *Graph, strat Strategy) []point {
	var out []point
	taken := map[xq.Expr]bool{}
	// User-written execute-at expressions are already remote: never insert
	// a second XRPCExpr inside their bodies (rule 27 functions are flat).
	for _, v := range g.Pre {
		if _, isRemote := v.(*xq.XRPCExpr); isRemote {
			taken[v] = true
		}
	}
	insideTaken := func(e xq.Expr) bool {
		for p := e; p != nil; p = g.Parent[p] {
			if taken[p] {
				return true
			}
		}
		return false
	}
	for _, v := range g.Pre {
		if insideTaken(v) {
			continue
		}
		if host, ok := g.Interesting(v, strat); ok {
			taken[v] = true
			out = append(out, point{expr: v, host: host})
		}
	}
	return out
}

// insertXRPC performs the §III-B rewrite: the subgraph rooted at rs becomes
// the body of a new remote function; every outgoing varref edge turns into
// an XRPCParam ($dotN := $outer); the XRPCExpr replaces rs in the tree.
func insertXRPC(g *Graph, q *xq.Query, rs xq.Expr, host, fname string) *xq.XRPCExpr {
	free := xq.FreeVars(rs)
	x := &xq.XRPCExpr{
		Target:   &xq.Literal{Val: xdm.NewString(host)},
		FuncName: fname,
	}
	// Parameters are named apart from every name in rs, so a free variable
	// renamed to $dotN is never captured by a binder of the shipped body.
	names := xq.ExprNames(rs)
	subst := map[string]string{}
	i := 0
	// Deterministic parameter order: first use order in the body.
	var order []string
	seen := map[string]bool{}
	xq.Walk(rs, func(e xq.Expr) bool {
		if ref, ok := e.(*xq.VarRef); ok && free[ref.Name] && !seen[ref.Name] {
			seen[ref.Name] = true
			order = append(order, ref.Name)
		}
		return true
	})
	for _, name := range order {
		pn := names.Fresh(&i, "dot%d")
		subst[name] = pn
		x.Params = append(x.Params, &xq.XRPCParam{Name: pn, Ref: name})
		x.Types = append(x.Types, xq.AnyItems)
	}
	x.Body = xq.RenameFreeVars(rs, subst)
	if !replaceExpr(q, rs, x) {
		panic("core: insertion point not found in query")
	}
	return x
}

// replaceExpr swaps old for new anywhere in the query (body or declared
// function bodies), returning whether a replacement happened.
func replaceExpr(q *xq.Query, old, nw xq.Expr) bool {
	p := holder(&q.Body, old)
	for _, f := range q.Funcs {
		if p == nil {
			p = holder(&f.Body, old)
		}
	}
	if p != nil {
		*p = nw
	}
	return p != nil
}

// holder returns the slot under *p, or p itself, that holds e.
func holder(p *xq.Expr, e xq.Expr) *xq.Expr {
	if *p == e {
		return p
	}
	var found *xq.Expr
	xq.Slots(*p, func(s xq.Slot) {
		if found == nil {
			found = holder(s.Expr, e)
		}
	})
	return found
}

// applyCodeMotion implements distributed code motion (§IV): inside each
// shipped body, a downward path applied to a parameter and consumed by a
// value comparison is replaced by a fresh parameter computed at the caller,
// so only the (small) extracted values ship instead of full nodes.
func applyCodeMotion(q *xq.Query, plan *Plan) {
	seq := 0
	for _, site := range plan.Remotes {
		x := site.X
		// A moved path's parameter joins the shipped body and its let wraps
		// x: both names are chosen apart from every name in x.
		names := xq.ExprNames(x)
		for _, param := range append([]*xq.XRPCParam(nil), x.Params...) {
			moved := movableParamPaths(x.Body, param.Name)
			if len(moved) == 0 {
				continue
			}
			for _, pe := range moved {
				newParam := names.Fresh(&seq, "para%d", "cm%d")
				letVar := fmt.Sprintf("cm%d", seq)
				// Caller-side expression: the moved path applied to the
				// caller's value of the parameter, atomized so the message
				// carries string values instead of nodes ("extract the
				// string value of id at peer A and only ship the strings",
				// Table IV's $para2 as xs:string*).
				movedPath := xq.CloneExpr(pe).(*xq.PathExpr)
				movedPath.Input = &xq.VarRef{Name: param.Ref}
				callerExpr := &xq.FunCall{Name: "data", Args: []xq.Expr{movedPath}}
				// Body side: the path becomes a parameter reference.
				if !replaceExpr(q, xq.Expr(pe), &xq.VarRef{Name: newParam}) {
					continue
				}
				x.Params = append(x.Params, &xq.XRPCParam{Name: newParam, Ref: letVar})
				x.Types = append(x.Types, xq.AnyItems)
				// Wrap the XRPCExpr with the caller-side let, below the
				// lets of paths moved before.
				replaceExpr(q, x, &xq.LetExpr{Var: letVar, Bind: callerExpr, Return: x})
			}
			// Drop the original parameter if the body no longer uses it.
			if countFreeUses(x.Body, param.Name) == 0 {
				var keepP []*xq.XRPCParam
				var keepT []xq.SeqType
				for i, p := range x.Params {
					if p != param {
						keepP = append(keepP, p)
						if i < len(x.Types) {
							keepT = append(keepT, x.Types[i])
						}
					}
				}
				x.Params, x.Types = keepP, keepT
			}
		}
	}
}

// movableParamPaths finds maximal PathExprs in body of the form
// $param/downward-steps (no predicates) whose value is consumed by a value
// comparison — the §IV safety condition approximated: moving only
// atomization-bound downward paths of a parameter is semantically safe.
func movableParamPaths(body xq.Expr, param string) []*xq.PathExpr {
	var out []*xq.PathExpr
	var visit func(e xq.Expr, inValueCmp bool)
	visit = func(e xq.Expr, inValueCmp bool) {
		if c, ok := e.(*xq.CompareExpr); ok && !c.Op.IsNodeComp() {
			visit(c.Left, true)
			visit(c.Right, true)
			return
		}
		if pe, ok := e.(*xq.PathExpr); ok && inValueCmp && isParamDownwardPath(pe, param) {
			out = append(out, pe)
			return
		}
		xq.Slots(e, func(s xq.Slot) { visit(*s.Expr, false) })
	}
	visit(body, false)
	return out
}

func isParamDownwardPath(pe *xq.PathExpr, param string) bool {
	ref, ok := pe.Input.(*xq.VarRef)
	if !ok || ref.Name != param || len(pe.Steps) == 0 {
		return false
	}
	for _, st := range pe.Steps {
		if st.Filter || len(st.Preds) > 0 {
			return false
		}
		switch st.Axis {
		case xq.AxisChild, xq.AxisAttribute, xq.AxisDescendant, xq.AxisDescendantOrSelf, xq.AxisSelf:
		default:
			return false
		}
	}
	return true
}
