package core

import (
	"fmt"

	"distxq/internal/xq"
)

// sinkable reports whether a let-binding may move into slot s of parent
// without changing how often the binding is evaluated: not into what a for
// or quantifier evaluates per item (its order keys, return or condition),
// not into a path — the paper's Qn2 keeps `let $c := doc(..) return
// $c/enroll/exam` just above the path, relating the doc to its steps via
// parse edges — and not into a shipped body.
func sinkable(parent xq.Expr, s xq.Slot) bool {
	switch parent.(type) {
	case *xq.ForExpr, *xq.QuantifiedExpr:
		return s.Var == nil
	case *xq.PathExpr:
		return false
	}
	return s.Remote == nil
}

// countFreeUses counts free occurrences of $name in e.
func countFreeUses(e xq.Expr, name string) int {
	n := 0
	switch v := e.(type) {
	case *xq.VarRef:
		if v.Name == name {
			n++
		}
	case *xq.XRPCExpr:
		for _, p := range v.Params {
			if p.Ref == name {
				n++
			}
		}
	}
	xq.Slots(e, func(s xq.Slot) {
		if !s.Binds(name) {
			n += countFreeUses(*s.Expr, name)
		}
	})
	return n
}

// AlphaRename makes every binder name unique across the query so sinking and
// insertion never capture variables. Existing names are kept when unique.
func AlphaRename(q *xq.Query) {
	used := map[string]bool{}
	for _, f := range q.Funcs {
		for _, p := range f.Params {
			used[p.Name] = true
		}
	}
	fresh := func(base string) string {
		if !used[base] {
			used[base] = true
			return base
		}
		for i := 1; ; i++ {
			cand := fmt.Sprintf("%s_%d", base, i)
			if !used[cand] {
				used[cand] = true
				return cand
			}
		}
	}
	var rn func(e xq.Expr, subst map[string]string) xq.Expr
	rn = func(e xq.Expr, subst map[string]string) xq.Expr {
		switch v := e.(type) {
		case *xq.VarRef:
			if nn, ok := subst[v.Name]; ok {
				v.Name = nn
			}
		case *xq.XRPCExpr:
			for _, p := range v.Params {
				if nn, ok := subst[p.Ref]; ok {
					p.Ref = nn
				}
			}
		}
		// Each binder is renamed on its first slot, after the slots that
		// precede its scope; a for's order keys and return share one binder.
		var binder *string
		var inner map[string]string
		xq.Slots(e, func(s xq.Slot) {
			sub := subst
			switch {
			case s.Remote != nil:
				sub = nil // the shipped body sees only its parameters
			case s.Var != nil:
				if s.Var != binder {
					nn := fresh(*s.Var)
					binder, inner = s.Var, withSubst(subst, *s.Var, nn)
					*s.Var = nn
				}
				sub = inner
			}
			*s.Expr = rn(*s.Expr, sub)
		})
		return e
	}
	q.Body = rn(q.Body, map[string]string{})
}

func withSubst(s map[string]string, from, to string) map[string]string {
	ns := make(map[string]string, len(s)+1)
	for k, v := range s {
		ns[k] = v
	}
	ns[from] = to
	return ns
}

// SinkLets implements the §IV normalization: every let-binding moves to just
// above the lowest common ancestor of the vertices referencing its variable,
// relating document accesses to their uses through parse edges instead of
// varref edges. Bindings with no uses are dropped. AlphaRename must run
// first (Decompose does).
func SinkLets(q *xq.Query) {
	for changed := true; changed; {
		changed = false
		q.Body = sinkIn(q.Body, &changed)
	}
}

func sinkIn(e xq.Expr, changed *bool) xq.Expr {
	if e == nil {
		return nil
	}
	xq.Slots(e, func(s xq.Slot) { *s.Expr = sinkIn(*s.Expr, changed) })
	let, ok := e.(*xq.LetExpr)
	if !ok {
		return e
	}
	uses := countFreeUses(let.Return, let.Var)
	if uses == 0 {
		*changed = true
		return let.Return
	}
	// Compute the full descent in one pass: walk down while exactly one
	// sinkable child slot contains every use. The move is performed only if
	// the path crosses at least one slot that is not another let's return —
	// plain let reordering makes no progress and would oscillate forever.
	cur := let.Return
	var final *xq.Expr
	nonLetSlots := 0
	for depth := 0; depth <= 10000; depth++ { // defensive bound; query trees are finite
		var next *xq.Expr
		stop := false
		xq.Slots(cur, func(s xq.Slot) {
			if s.Var != nil && *s.Var == let.Var {
				stop = true // capture guard (unreachable after AlphaRename)
			}
			if *s.Expr == nil {
				return
			}
			switch n := countFreeUses(*s.Expr, let.Var); {
			case n == uses && next == nil:
				next, stop = s.Expr, stop || !sinkable(cur, s)
			case n > 0:
				stop = true // the uses spread over several slots
			}
		})
		if stop || next == nil {
			break
		}
		if curLet, isLet := cur.(*xq.LetExpr); !isLet || next != &curLet.Return {
			nonLetSlots++
		}
		final, cur = next, *next
	}
	if final == nil || nonLetSlots == 0 {
		return e
	}
	*final = &xq.LetExpr{Var: let.Var, Bind: let.Bind, Return: cur}
	*changed = true
	return let.Return
}
