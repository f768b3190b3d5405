package xq

import "distxq/internal/xdm"

// This file holds AST construction helpers for passes that synthesize
// expressions (rather than parse them) — notably the shard-aware planner,
// which builds `for $p in (peers...) return execute at {$p} {...}` loops.

// NewStringLiteral returns a string literal expression.
func NewStringLiteral(s string) *Literal { return &Literal{Val: xdm.NewString(s)} }

// NewStringSeq returns the sequence expression ("a", "b", ...). A single
// value still yields a SeqExpr so callers get a loop-iterable shape
// regardless of arity.
func NewStringSeq(vals []string) *SeqExpr {
	items := make([]Expr, len(vals))
	for i, v := range vals {
		items[i] = NewStringLiteral(v)
	}
	return &SeqExpr{Items: items}
}

// NewDocCall returns the function application doc("uri").
func NewDocCall(uri string) *FunCall {
	return &FunCall{Name: "doc", Args: []Expr{NewStringLiteral(uri)}}
}

// NewScatterLoop builds the canonical concurrent scatter form the evaluator
// dispatches as one Bulk RPC per distinct peer:
//
//	for $loopVar in (targets...) return execute at {$loopVar} { body }
//
// The XRPCExpr's target is the loop variable, so the destination varies per
// iteration and the engine partitions iterations by peer (Engine.scatter).
// Callers fill x.Params/x.Types before or after; the loop variable itself is
// never visible to the shipped body.
func NewScatterLoop(loopVar string, targets []string, x *XRPCExpr) *ForExpr {
	x.Target = &VarRef{Name: loopVar}
	return &ForExpr{Var: loopVar, In: NewStringSeq(targets), Return: x}
}

// RootedDoc decomposes an expression that navigates from a literal fn:doc()
// application: it returns the URI and the flattened step list when e is
// doc("uri"), doc("uri")/steps..., or a nesting of path expressions whose
// innermost input is such a call (e.g. (doc("uri")/a)[p]/b). The step slice
// is shared with e — callers must not mutate it.
func RootedDoc(e Expr) (uri string, steps []*Step, ok bool) {
	switch v := e.(type) {
	case *FunCall:
		if v.Name != "doc" && v.Name != "fn:doc" || len(v.Args) != 1 {
			return "", nil, false
		}
		lit, isLit := v.Args[0].(*Literal)
		if !isLit {
			return "", nil, false
		}
		return lit.Val.ItemString(), nil, true
	case *PathExpr:
		if v.Input == nil {
			return "", nil, false
		}
		uri, inner, ok := RootedDoc(v.Input)
		if !ok {
			return "", nil, false
		}
		return uri, append(append([]*Step(nil), inner...), v.Steps...), true
	}
	return "", nil, false
}
