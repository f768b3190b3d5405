package xq

import "fmt"

// Slot is one settable child position of an expression node, together with
// the scope the child sees. Slots is the one table of both: every child walk,
// copy, rename and scope walk over the AST derives from it, so a node type's
// child fields and binders are written down once.
type Slot struct {
	// Expr is the child field itself: read it, or store a replacement.
	Expr *Expr
	// Var points at the name of the variable the node binds over this slot —
	// a for, let or quantifier variable, a typeswitch case or default
	// variable — or is nil when the slot sees the node's own scope.
	Var *string
	// Bind is the expression *Var is bound to: a for's or quantifier's In, a
	// let's Bind, a typeswitch's Operand.
	Bind Expr
	// Remote is set on an XRPCExpr's shipped body, which runs at the peer and
	// sees Remote.Params and nothing of the caller's scope.
	Remote *XRPCExpr
}

// Binds reports whether name is bound over the slot: by the node's binder,
// or as a parameter of the shipped body.
func (s Slot) Binds(name string) bool {
	if s.Var != nil && *s.Var == name {
		return true
	}
	if s.Remote != nil {
		for _, p := range s.Remote.Params {
			if p.Name == name {
				return true
			}
		}
	}
	return false
}

// named is p, or nil for a binder that names no variable (a typeswitch case
// or default without one).
func named(p *string) *string {
	if *p == "" {
		return nil
	}
	return p
}

// Slots calls f on each child slot of e in evaluation order: a for is In,
// its order keys, Return; a typeswitch is Operand, the case returns,
// Default; a path is Input, then each step's predicates; a constructor is
// NameExpr, then its content. A nil PathExpr.Input or NameExpr is no slot.
// An ExecuteAt's slots are Target and the call's arguments: the *FunCall
// itself is not an expression position. Slots allocates nothing.
func Slots(e Expr, f func(Slot)) {
	switch v := e.(type) {
	case *ForExpr:
		f(Slot{Expr: &v.In})
		for i := range v.OrderBy {
			f(Slot{Expr: &v.OrderBy[i].Key, Var: &v.Var, Bind: v.In})
		}
		f(Slot{Expr: &v.Return, Var: &v.Var, Bind: v.In})
	case *LetExpr:
		f(Slot{Expr: &v.Bind})
		f(Slot{Expr: &v.Return, Var: &v.Var, Bind: v.Bind})
	case *IfExpr:
		f(Slot{Expr: &v.Cond})
		f(Slot{Expr: &v.Then})
		f(Slot{Expr: &v.Else})
	case *QuantifiedExpr:
		f(Slot{Expr: &v.In})
		f(Slot{Expr: &v.Satisfies, Var: &v.Var, Bind: v.In})
	case *TypeswitchExpr:
		f(Slot{Expr: &v.Operand})
		for _, c := range v.Cases {
			f(Slot{Expr: &c.Return, Var: named(&c.Var), Bind: v.Operand})
		}
		f(Slot{Expr: &v.Default, Var: named(&v.DefaultVar), Bind: v.Operand})
	case *CompareExpr:
		f(Slot{Expr: &v.Left})
		f(Slot{Expr: &v.Right})
	case *ArithExpr:
		f(Slot{Expr: &v.Left})
		f(Slot{Expr: &v.Right})
	case *LogicExpr:
		f(Slot{Expr: &v.Left})
		f(Slot{Expr: &v.Right})
	case *NodeSetExpr:
		f(Slot{Expr: &v.Left})
		f(Slot{Expr: &v.Right})
	case *UnaryExpr:
		f(Slot{Expr: &v.Operand})
	case *SeqExpr:
		for i := range v.Items {
			f(Slot{Expr: &v.Items[i]})
		}
	case *PathExpr:
		if v.Input != nil {
			f(Slot{Expr: &v.Input})
		}
		for _, st := range v.Steps {
			for i := range st.Preds {
				f(Slot{Expr: &st.Preds[i]})
			}
		}
	case *ElemConstructor:
		if v.NameExpr != nil {
			f(Slot{Expr: &v.NameExpr})
		}
		for i := range v.Content {
			f(Slot{Expr: &v.Content[i]})
		}
	case *AttrConstructor:
		if v.NameExpr != nil {
			f(Slot{Expr: &v.NameExpr})
		}
		for i := range v.Value {
			f(Slot{Expr: &v.Value[i]})
		}
	case *TextConstructor:
		f(Slot{Expr: &v.Content})
	case *DocConstructor:
		f(Slot{Expr: &v.Content})
	case *FunCall:
		for i := range v.Args {
			f(Slot{Expr: &v.Args[i]})
		}
	case *ExecuteAt:
		f(Slot{Expr: &v.Target})
		for i := range v.Call.Args {
			f(Slot{Expr: &v.Call.Args[i]})
		}
	case *XRPCExpr:
		f(Slot{Expr: &v.Target})
		f(Slot{Expr: &v.Body, Remote: v})
	}
}

// Copy returns a shallow copy of e that owns every slice and struct holding
// its slots, and an XRPCExpr's parameters, so storing into a slot of the copy
// never writes e. The child expressions themselves are shared.
func Copy(e Expr) Expr {
	switch v := e.(type) {
	case *Literal:
		c := *v
		return &c
	case *VarRef:
		c := *v
		return &c
	case *ContextItem:
		return &ContextItem{}
	case *RootExpr:
		return &RootExpr{}
	case *ForExpr:
		c := *v
		c.OrderBy = append([]OrderSpec(nil), v.OrderBy...)
		return &c
	case *LetExpr:
		c := *v
		return &c
	case *IfExpr:
		c := *v
		return &c
	case *QuantifiedExpr:
		c := *v
		return &c
	case *TypeswitchExpr:
		c := *v
		c.Cases = make([]*TSCase, len(v.Cases))
		for i, cs := range v.Cases {
			cc := *cs
			c.Cases[i] = &cc
		}
		return &c
	case *CompareExpr:
		c := *v
		return &c
	case *ArithExpr:
		c := *v
		return &c
	case *LogicExpr:
		c := *v
		return &c
	case *NodeSetExpr:
		c := *v
		return &c
	case *UnaryExpr:
		c := *v
		return &c
	case *SeqExpr:
		return &SeqExpr{Items: append([]Expr(nil), v.Items...)}
	case *PathExpr:
		c := &PathExpr{Input: v.Input, Steps: make([]*Step, len(v.Steps))}
		for i, st := range v.Steps {
			s := *st
			s.Preds = append([]Expr(nil), st.Preds...)
			c.Steps[i] = &s
		}
		return c
	case *ElemConstructor:
		c := *v
		c.Content = append([]Expr(nil), v.Content...)
		return &c
	case *AttrConstructor:
		c := *v
		c.Value = append([]Expr(nil), v.Value...)
		return &c
	case *TextConstructor:
		c := *v
		return &c
	case *DocConstructor:
		c := *v
		return &c
	case *FunCall:
		c := *v
		c.Args = append([]Expr(nil), v.Args...)
		return &c
	case *ExecuteAt:
		return &ExecuteAt{Target: v.Target, Call: Copy(v.Call).(*FunCall)}
	case *XRPCExpr:
		c := &XRPCExpr{Target: v.Target, Body: v.Body, FuncName: v.FuncName,
			Types: append([]SeqType(nil), v.Types...), ReturnedOnly: v.ReturnedOnly}
		for _, p := range v.Params {
			cp := *p
			c.Params = append(c.Params, &cp)
		}
		return c
	}
	return e
}

// Children returns the direct subexpressions of e in evaluation order. This
// is the parse-edge relation of the dependency graph.
func Children(e Expr) []Expr {
	var out []Expr
	Slots(e, func(s Slot) { out = append(out, *s.Expr) })
	return out
}

// Walk visits e and all its descendants pre-order, stopping a branch when f
// returns false.
func Walk(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	Slots(e, func(s Slot) { Walk(*s.Expr, f) })
}

// CloneExpr deep-copies an expression tree.
func CloneExpr(e Expr) Expr {
	c := Copy(e)
	Slots(c, func(s Slot) { *s.Expr = CloneExpr(*s.Expr) })
	return c
}

// RenameFreeVars substitutes the free variable names of e according to
// subst, in place, respecting shadowing by binders. Code motion and the
// decomposer rename with it when they introduce parameter variables.
func RenameFreeVars(e Expr, subst map[string]string) Expr {
	if len(subst) == 0 {
		return e
	}
	switch v := e.(type) {
	case *VarRef:
		if nn, ok := subst[v.Name]; ok {
			return &VarRef{Name: nn}
		}
		return v
	case *XRPCExpr:
		// Parameter arguments read the caller's scope.
		for _, par := range v.Params {
			if nn, ok := subst[par.Ref]; ok {
				par.Ref = nn
			}
		}
	}
	Slots(e, func(s Slot) {
		inner := subst
		if s.Var != nil {
			inner = without(inner, *s.Var)
		}
		if s.Remote != nil {
			for _, par := range s.Remote.Params {
				inner = without(inner, par.Name)
			}
		}
		*s.Expr = RenameFreeVars(*s.Expr, inner)
	})
	return e
}

func without(s map[string]string, name string) map[string]string {
	if _, ok := s[name]; !ok {
		return s
	}
	out := make(map[string]string, len(s))
	for k, v := range s {
		if k != name {
			out[k] = v
		}
	}
	return out
}

// boundVars is the list of variable names bound around a visited node.
type boundVars struct {
	name string
	next *boundVars
}

func (b *boundVars) has(name string) bool {
	for ; b != nil; b = b.next {
		if b.name == name {
			return true
		}
	}
	return false
}

// Reads reports whether variable name occurs free in e: FreeVars(e)[name],
// without allocating.
func Reads(e Expr, name string) bool {
	switch v := e.(type) {
	case *VarRef:
		return v.Name == name
	case *XRPCExpr:
		for _, par := range v.Params {
			if par.Ref == name {
				return true
			}
		}
	}
	found := false
	Slots(e, func(s Slot) {
		if !found && !s.Binds(name) {
			found = Reads(*s.Expr, name)
		}
	})
	return found
}

// FreeVars returns the names of variables that occur free in e.
func FreeVars(e Expr) map[string]bool {
	out := map[string]bool{}
	freeVars(e, nil, out)
	return out
}

func freeVars(e Expr, bound *boundVars, out map[string]bool) {
	switch v := e.(type) {
	case *VarRef:
		if !bound.has(v.Name) {
			out[v.Name] = true
		}
	case *XRPCExpr:
		for _, par := range v.Params {
			if !bound.has(par.Ref) {
				out[par.Ref] = true
			}
		}
	}
	Slots(e, func(s Slot) {
		inner := bound
		if s.Var != nil {
			inner = &boundVars{name: *s.Var, next: inner}
		}
		if s.Remote != nil {
			for _, par := range s.Remote.Params {
				inner = &boundVars{name: par.Name, next: inner}
			}
		}
		freeVars(*s.Expr, inner, out)
	})
}

// Names is the set of variable names occurring in a scope — bound,
// referenced, an XRPC parameter or its argument, a function formal — plus
// every name handed out from it. A pass that introduces a variable takes its
// name from here, so the variable can neither capture a name the scope uses
// nor be captured by one. The scope is walked on the first name handed out:
// a pass that generates none walks nothing.
type Names struct {
	q    *Query
	e    Expr
	used map[string]bool
}

// QueryNames is the name set of q: its body and every declared function.
func QueryNames(q *Query) *Names { return &Names{q: q} }

// ExprNames is the name set of the subtree e.
func ExprNames(e Expr) *Names { return &Names{e: e} }

// Fresh advances the counter *n until every format, given *n, names a
// variable outside the set, reserves those names and returns the first.
func (s *Names) Fresh(n *int, formats ...string) string {
	s.load()
	names := make([]string, len(formats))
	for taken := true; taken; {
		*n++
		taken = false
		for i, f := range formats {
			names[i] = fmt.Sprintf(f, *n)
			taken = taken || s.used[names[i]]
		}
	}
	for _, name := range names {
		s.used[name] = true
	}
	return names[0]
}

// Claim reserves name if it is outside the set and reports whether it was.
func (s *Names) Claim(name string) bool {
	s.load()
	if s.used[name] {
		return false
	}
	s.used[name] = true
	return true
}

func (s *Names) load() {
	if s.used != nil {
		return
	}
	s.used = map[string]bool{}
	collect := func(e Expr) bool {
		switch v := e.(type) {
		case *VarRef:
			s.used[v.Name] = true
		case *XRPCExpr:
			for _, p := range v.Params {
				s.used[p.Name], s.used[p.Ref] = true, true
			}
		}
		Slots(e, func(sl Slot) {
			if sl.Var != nil {
				s.used[*sl.Var] = true
			}
		})
		return true
	}
	Walk(s.e, collect)
	if s.q != nil {
		Walk(s.q.Body, collect)
		for _, f := range s.q.Funcs {
			for _, p := range f.Params {
				s.used[p.Name] = true
			}
			Walk(f.Body, collect)
		}
	}
}
