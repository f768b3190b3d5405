// Package core implements the paper's primary contribution: the XQuery-Core
// dependency-graph decomposition framework (§III), the conservative
// pass-by-value insertion conditions i–iv (§IV), interesting decomposition
// points, let-sinking normalization, distributed code motion, and the relaxed
// by-fragment (§V) and by-projection (§VI) condition sets. Decompose rewrites
// a query over xrpc:// documents into an equivalent query whose remote-
// executable subgraphs became XRPCExprs.
//
// The layer's contract: Decompose(q, strategy, opts) returns a Plan whose
// Query evaluates — through any eval.RemoteCaller honoring the XRPC
// semantics — to exactly the sequence the undecomposed query produces
// locally; every rewrite here is proven result-preserving, and anything
// unprovable is left local. The same guarantee covers the shard-aware pass
// (shard.go): a ShardMap registers one logical document partitioned across
// peers — optionally with per-shard replica sets for fault tolerance — and
// queries over it either become concurrent scatter loops or fall back to
// evaluation over the materialized shard union, never a third thing.
// core depends only on the xq AST and xdm data model; it never dispatches.
package core

import (
	"strings"

	"distxq/internal/xq"
)

// Graph is the dependency graph (d-graph) of a query body: the parse tree
// plus varref edges from variable references to the expressions their
// binders evaluate (§III-A). Vertices are AST nodes.
type Graph struct {
	Root xq.Expr
	// Parent is the parse-edge parent.
	Parent map[xq.Expr]xq.Expr
	// RefTarget maps a VarRef to the expression its binder binds ($x of
	// `for $x in E` maps to E; a let maps to its bind expression). Nil for
	// free variables (e.g. function parameters).
	RefTarget map[*xq.VarRef]xq.Expr
	// Pre lists vertices in pre-order.
	Pre []xq.Expr
	// XRPCParamTarget resolves rule-28 parameter references.
	XRPCParamTarget map[*xq.XRPCParam]xq.Expr
}

// Build constructs the d-graph of a body expression. Variable scoping
// follows the binder structure; shadowing is respected.
func Build(root xq.Expr) *Graph {
	g := &Graph{
		Root:            root,
		Parent:          map[xq.Expr]xq.Expr{},
		RefTarget:       map[*xq.VarRef]xq.Expr{},
		XRPCParamTarget: map[*xq.XRPCParam]xq.Expr{},
	}
	g.walk(root, nil, nil)
	return g
}

// binding is one variable of the lexical scope around a visited vertex.
type binding struct {
	name   string
	target xq.Expr
	next   *binding
}

func (b *binding) lookup(name string) (xq.Expr, bool) {
	for ; b != nil; b = b.next {
		if b.name == name {
			return b.target, true
		}
	}
	return nil, false
}

func (g *Graph) walk(e xq.Expr, parent xq.Expr, scope *binding) {
	if e == nil {
		return
	}
	g.Parent[e] = parent
	g.Pre = append(g.Pre, e)
	switch v := e.(type) {
	case *xq.VarRef:
		if t, ok := scope.lookup(v.Name); ok {
			g.RefTarget[v] = t
		}
	case *xq.XRPCExpr:
		for _, p := range v.Params {
			if t, ok := scope.lookup(p.Ref); ok {
				g.XRPCParamTarget[p] = t
			}
		}
	}
	xq.Slots(e, func(s xq.Slot) {
		inner := scope
		if s.Var != nil {
			inner = &binding{name: *s.Var, target: s.Bind, next: scope}
		}
		if s.Remote != nil {
			inner = nil // the remote body sees only its parameters
			for _, p := range s.Remote.Params {
				inner = &binding{name: p.Name, next: inner}
			}
		}
		g.walk(*s.Expr, e, inner)
	})
}

// Subtree returns the parse-edge subtree of rs (the vertex-induced subgraph
// rooted at rs, §III-A), as a membership set.
func (g *Graph) Subtree(rs xq.Expr) map[xq.Expr]bool {
	out := map[xq.Expr]bool{}
	xq.Walk(rs, func(e xq.Expr) bool {
		out[e] = true
		return true
	})
	return out
}

// DependsOn computes Dep(rs) = {n | n ⇒ rs}: every vertex whose value
// depends on rs, via parse edges (ancestors) and varref edges (readers of
// variables whose bindings contain rs), to a fixpoint.
func (g *Graph) DependsOn(rs xq.Expr) map[xq.Expr]bool {
	marked := map[xq.Expr]bool{rs: true}
	for changed := true; changed; {
		changed = false
		// Ancestor propagation: a parent parse-depends on marked children.
		for i := len(g.Pre) - 1; i >= 0; i-- {
			n := g.Pre[i]
			if marked[n] {
				if p := g.Parent[n]; p != nil && !marked[p] {
					marked[p] = true
					changed = true
				}
			}
		}
		// Varref jumps: a reference depends on its binder's expression.
		for ref, target := range g.RefTarget {
			if !marked[ref] && target != nil && marked[target] {
				marked[ref] = true
				changed = true
			}
		}
	}
	return marked
}

// ParamUsers computes P(rs) = {n ∈ V(Gs) | rs ⇒p n ∧ n ⇒ v, v ∉ V(Gs)}:
// vertices inside the candidate subgraph that (transitively) use values
// bound outside — the expressions touching shipped parameters.
func (g *Graph) ParamUsers(rs xq.Expr) map[xq.Expr]bool {
	inside := g.Subtree(rs)
	marked := map[xq.Expr]bool{}
	// Seed: references whose target lies outside (or is unknown/free).
	for ref, target := range g.RefTarget {
		if !inside[ref] {
			continue
		}
		if target == nil || !inside[target] {
			marked[ref] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for i := len(g.Pre) - 1; i >= 0; i-- {
			n := g.Pre[i]
			if !marked[n] || n == rs {
				continue
			}
			if p := g.Parent[n]; p != nil && inside[p] && !marked[p] {
				marked[p] = true
				changed = true
			}
		}
		for ref, target := range g.RefTarget {
			if inside[ref] && !marked[ref] && target != nil && inside[target] && marked[target] {
				marked[ref] = true
				changed = true
			}
		}
	}
	return marked
}

// Reach computes the dual closure {m | rs ⇒ m}: everything rs depends on —
// its parse subtree plus, transitively, the bindings of variables referenced
// inside.
func (g *Graph) Reach(rs xq.Expr) map[xq.Expr]bool {
	out := map[xq.Expr]bool{}
	var add func(e xq.Expr)
	add = func(e xq.Expr) {
		if e == nil || out[e] {
			return
		}
		xq.Walk(e, func(sub xq.Expr) bool {
			if out[sub] {
				return false
			}
			out[sub] = true
			if ref, ok := sub.(*xq.VarRef); ok {
				if t := g.RefTarget[ref]; t != nil {
					add(t)
				}
			}
			return true
		})
	}
	add(rs)
	return out
}

// DocID identifies one fn:doc() application: the URI tagged with the vertex
// where the document is opened (uri::vy, §IV). A computed URI is "*";
// element constructors get an artificial per-vertex URI.
type DocID struct {
	URI    string
	Vertex xq.Expr
}

// DocSet computes D(v): the URI dependency set over parse edges only (§IV).
func (g *Graph) DocSet(v xq.Expr) map[DocID]bool {
	out := map[DocID]bool{}
	xq.Walk(v, func(e xq.Expr) bool {
		switch fc := e.(type) {
		case *xq.FunCall:
			name := strings.TrimPrefix(fc.Name, "fn:")
			if name == "doc" || name == "collection" {
				uri := "*"
				if name == "doc" && len(fc.Args) == 1 {
					if lit, ok := fc.Args[0].(*xq.Literal); ok {
						uri = lit.Val.ItemString()
					}
				}
				out[DocID{URI: uri, Vertex: e}] = true
			}
		case *xq.ElemConstructor, *xq.DocConstructor:
			out[DocID{URI: "(constructed)", Vertex: e}] = true
		case *xq.XRPCExpr:
			// An already-inserted remote call is opaque.
			return false
		}
		return true
	})
	return out
}

// SameDocSet reports set equality of two doc sets.
func SameDocSet(a, b map[DocID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// HasMatchingDoc implements the §V predicate (as the prose defines it): the
// expression depends on two *different* applications of fn:doc() with the
// same URI (computed URIs match anything), the situation that can mix nodes
// of one document obtained through separate calls.
func HasMatchingDoc(docs map[DocID]bool) bool {
	ids := make([]DocID, 0, len(docs))
	for d := range docs {
		ids = append(ids, d)
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[i].Vertex == ids[j].Vertex {
				continue
			}
			if ids[i].URI == ids[j].URI || ids[i].URI == "*" || ids[j].URI == "*" {
				return true
			}
		}
	}
	return false
}

// XRPCHosts extracts the distinct xrpc:// hosts of a doc set.
func XRPCHosts(docs map[DocID]bool) []string {
	seen := map[string]bool{}
	var out []string
	for d := range docs {
		if host, ok := XRPCHost(d.URI); ok && !seen[host] {
			seen[host] = true
			out = append(out, host)
		}
	}
	return out
}

// XRPCHost parses the host of an xrpc://host/path URI.
func XRPCHost(uri string) (string, bool) {
	const scheme = "xrpc://"
	if !strings.HasPrefix(uri, scheme) {
		return "", false
	}
	rest := uri[len(scheme):]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "", false
	}
	return rest, true
}
