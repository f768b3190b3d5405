package xq

import (
	"fmt"
)

// Normalize rewrites a parsed query into XCore form:
//
//   - surface `execute at {u} {f(args)}` calls are converted into the XCore
//     XRPCExpr form (rule 27) by inlining the declared function f, with each
//     non-variable argument hoisted into a fresh let binding so all XRPCParams
//     are plain variable references (rule 28);
//   - remaining user-defined function calls are checked to exist with the
//     right arity (they are evaluated by the engine via the prolog).
//
// where→if and path-step fusion already happen at parse time. The paper's
// let-sinking normalization (§IV) lives in internal/core since it is part of
// the decomposition pipeline.
func Normalize(q *Query) error {
	// Normalization is idempotent, so a query that has already been through
	// it is returned untouched. This is what makes cached plans shareable:
	// concurrent executions of one plan all call Normalize (Engine.Query
	// does), and only the first — before the plan is published — may write
	// the AST.
	if q.normalized {
		return nil
	}
	funcs := map[string]*FuncDecl{}
	for _, f := range q.Funcs {
		key := fmt.Sprintf("%s/%d", f.Name, len(f.Params))
		if _, dup := funcs[key]; dup {
			return fmt.Errorf("xq: duplicate function %s#%d", f.Name, len(f.Params))
		}
		funcs[key] = f
	}
	n := &normalizer{funcs: funcs, names: QueryNames(q)}
	for _, f := range q.Funcs {
		b, err := n.rewrite(f.Body)
		if err != nil {
			return err
		}
		f.Body = b
	}
	b, err := n.rewrite(q.Body)
	if err != nil {
		return err
	}
	q.Body = b
	q.normalized = true
	return nil
}

type normalizer struct {
	funcs map[string]*FuncDecl
	// names holds every name the query uses: a parameter named $p_1 must not
	// be captured by a user's `let $p_1` in the inlined body.
	names *Names
	fresh int
}

func (n *normalizer) freshVar(prefix string) string {
	return n.names.Fresh(&n.fresh, prefix+"_%d")
}

// rewrite returns e with every ExecuteAt converted to XRPCExpr, recursively.
func (n *normalizer) rewrite(e Expr) (Expr, error) {
	if x, ok := e.(*ExecuteAt); ok {
		return n.rewriteExecuteAt(x)
	}
	var err error
	Slots(e, func(s Slot) {
		if err == nil {
			*s.Expr, err = n.rewrite(*s.Expr)
		}
	})
	return e, err
}

// rewriteExecuteAt converts the surface form into XCore rule 27, inlining the
// named function body with formals substituted by fresh parameter variables.
func (n *normalizer) rewriteExecuteAt(x *ExecuteAt) (Expr, error) {
	target, err := n.rewrite(x.Target)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s/%d", x.Call.Name, len(x.Call.Args))
	fd, ok := n.funcs[key]
	if !ok {
		return nil, fmt.Errorf("xq: execute at calls undeclared function %s#%d",
			x.Call.Name, len(x.Call.Args))
	}
	if callsItself(fd, n.funcs, map[string]bool{}) {
		return nil, fmt.Errorf("xq: execute at target %s is (mutually) recursive; "+
			"XCore rule 27 cannot express recursive remote functions", fd.Name)
	}
	out := &XRPCExpr{Target: target, FuncName: fd.Name}
	// Inline the body of fd under fresh parameter names to avoid capture.
	subst := map[string]string{}
	var lets []*LetExpr
	for i, par := range fd.Params {
		arg, err := n.rewrite(x.Call.Args[i])
		if err != nil {
			return nil, err
		}
		pv := n.freshVar("p")
		subst[par.Name] = pv
		ref, isVar := arg.(*VarRef)
		if isVar {
			out.Params = append(out.Params, &XRPCParam{Name: pv, Ref: ref.Name})
		} else {
			// Hoist non-variable argument into a let so rule 28 holds.
			av := n.freshVar("arg")
			lets = append(lets, &LetExpr{Var: av, Bind: arg})
			out.Params = append(out.Params, &XRPCParam{Name: pv, Ref: av})
		}
		out.Types = append(out.Types, par.Type)
	}
	// Inline any nested calls to declared functions inside the shipped body
	// (the remote peer receives a self-contained function).
	body, err := n.inlineCalls(CloneExpr(fd.Body), map[string]bool{fd.Name: true})
	if err != nil {
		return nil, err
	}
	out.Body = RenameFreeVars(body, subst)
	var res Expr = out
	for i := len(lets) - 1; i >= 0; i-- {
		lets[i].Return = res
		res = lets[i]
	}
	return res, nil
}

// inlineCalls replaces calls to declared functions inside a shipped body by
// let-bound inlined copies of their bodies.
func (n *normalizer) inlineCalls(e Expr, inProgress map[string]bool) (Expr, error) {
	var err error
	var walkFn func(Expr) Expr
	walkFn = func(sub Expr) Expr {
		if err != nil || sub == nil {
			return sub
		}
		if fc, ok := sub.(*FunCall); ok {
			key := fmt.Sprintf("%s/%d", fc.Name, len(fc.Args))
			if fd, declared := n.funcs[key]; declared {
				if inProgress[fd.Name] {
					err = fmt.Errorf("xq: recursive function %s cannot be shipped remotely", fd.Name)
					return sub
				}
				inProgress[fd.Name] = true
				body, ierr := n.inlineCalls(CloneExpr(fd.Body), inProgress)
				delete(inProgress, fd.Name)
				if ierr != nil {
					err = ierr
					return sub
				}
				subst := map[string]string{}
				var lets []*LetExpr
				for i, par := range fd.Params {
					av := n.freshVar("inl")
					subst[par.Name] = av
					lets = append(lets, &LetExpr{Var: av, Bind: walkFn(fc.Args[i])})
				}
				var out Expr = RenameFreeVars(body, subst)
				for i := len(lets) - 1; i >= 0; i-- {
					lets[i].Return = out
					out = lets[i]
				}
				return out
			}
		}
		Slots(sub, func(s Slot) { *s.Expr = walkFn(*s.Expr) })
		return sub
	}
	out := walkFn(e)
	return out, err
}

func callsItself(fd *FuncDecl, funcs map[string]*FuncDecl, seen map[string]bool) bool {
	if seen[fd.Name] {
		return true
	}
	seen[fd.Name] = true
	defer delete(seen, fd.Name)
	found := false
	Walk(fd.Body, func(e Expr) bool {
		fc, ok := e.(*FunCall)
		if x, at := e.(*ExecuteAt); at {
			// The call is no slot of its execute-at, but it calls all the same.
			fc, ok = x.Call, true
		}
		if ok {
			key := fmt.Sprintf("%s/%d", fc.Name, len(fc.Args))
			if callee, declared := funcs[key]; declared {
				if callee.Name == fd.Name || callsItself(callee, funcs, seen) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
