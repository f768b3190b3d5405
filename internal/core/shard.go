package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// ShardMap describes how one logical document is horizontally partitioned
// across peers: queries name Logical in fn:doc(), each peer in Peers hosts
// one shard at the peer-local path ShardPath, and RecordPath is the rooted
// path to the partitioned record sequence (the only part of the document that
// differs between shards — everything above it is a skeleton every shard
// repeats). The logical document order is shard-major: all records of
// Peers[0] in their local order, then Peers[1], and so on.
type ShardMap struct {
	// Logical is the URI queries use for the whole partitioned document. It
	// must not use the xrpc:// scheme (a logical document has no single
	// owning host for the ordinary decomposition to target).
	Logical string
	// Peers lists the shard-hosting peers in shard (and logical) order.
	Peers []string
	// ShardPath is the peer-local document path of every shard, so a shipped
	// body's fn:doc(ShardPath) resolves to the local shard on each peer.
	ShardPath string
	// RecordPath is the rooted child-axis path to the record sequence, e.g.
	// "child::site/child::people/child::person".
	RecordPath string
	// Replicas lists, per shard (parallel to Peers), the ordered failover
	// replicas of that shard: peers holding a byte-identical copy of the
	// shard document under the same ShardPath. A fault-tolerant dispatcher
	// re-issues a failed or hedged scatter lane to them in order, and the
	// materialized-union fallback fetches a shard from its first reachable
	// replica when the primary is down. Nil, or shorter than Peers, means
	// the remaining shards are unreplicated.
	Replicas [][]string
}

// InstallShards returns installed with next in force, keyed by Logical: a map
// replaces the installed one for its logical URI, or is appended. It never
// modifies installed, so queries still running on it keep their layout.
func InstallShards(installed []ShardMap, next ...ShardMap) []ShardMap {
	out := slices.Clone(installed)
	for _, m := range next {
		if i := slices.IndexFunc(out, func(o ShardMap) bool { return o.Logical == m.Logical }); i >= 0 {
			out[i] = m
		} else {
			out = append(out, m)
		}
	}
	return out
}

// ReplicaSets returns the peer → ordered-failover-replicas map of the shard
// layout, the form the evaluator's scatter dispatch consumes
// (eval.Engine.Replicas).
func (m ShardMap) ReplicaSets() map[string][]string {
	out := map[string][]string{}
	for i, p := range m.Peers {
		if i < len(m.Replicas) && len(m.Replicas[i]) > 0 {
			out[p] = append([]string(nil), m.Replicas[i]...)
		}
	}
	return out
}

// ErrUnknownShardPeer reports a shard map naming a peer the engine does not
// know; Decompose fails with it instead of planning a scatter that cannot
// dispatch.
var ErrUnknownShardPeer = errors.New("core: shard map names a peer absent from the engine's peer set")

// ShardDecision records one shard-rewrite outcome: a candidate expression
// rooted at a logical document either became a concurrent scatter loop or
// fell back to local evaluation over the materialized union, with the
// condition that forced the fallback.
type ShardDecision struct {
	Logical   string
	Scattered bool
	// Reason names the violated condition when not scattered.
	Reason string
	// X is the synthesized remote call of a scattered candidate.
	X *xq.XRPCExpr
}

// recordSteps parses and checks the record path: a rooted path of plain
// child-axis name (or wildcard) steps without predicates.
func (m ShardMap) recordSteps() ([]*xq.Step, error) {
	q, err := xq.ParseQuery(m.RecordPath)
	if err != nil {
		return nil, fmt.Errorf("core: shard map %s: record path: %w", m.Logical, err)
	}
	pe, ok := q.Body.(*xq.PathExpr)
	if !ok || pe.Input != nil {
		return nil, fmt.Errorf("core: shard map %s: record path %q must be a relative step path", m.Logical, m.RecordPath)
	}
	for _, st := range pe.Steps {
		if st.Filter || len(st.Preds) > 0 || st.Axis != xq.AxisChild {
			return nil, fmt.Errorf("core: shard map %s: record path %q must use predicate-free child:: steps", m.Logical, m.RecordPath)
		}
		if st.Test.Kind != xq.TestName && st.Test.Kind != xq.TestWildcard {
			return nil, fmt.Errorf("core: shard map %s: record path %q must test element names", m.Logical, m.RecordPath)
		}
	}
	if len(pe.Steps) == 0 {
		return nil, fmt.Errorf("core: shard map %s: empty record path", m.Logical)
	}
	return pe.Steps, nil
}

// validateShards checks every shard map for structural problems and, when
// the caller supplied the engine's peer set, for peers that do not exist.
func validateShards(opts Options) error {
	for _, m := range opts.Shards {
		if m.Logical == "" {
			return fmt.Errorf("core: shard map without a logical URI")
		}
		if _, isXRPC := XRPCHost(m.Logical); isXRPC {
			return fmt.Errorf("core: shard map %s: logical URI must not use the xrpc:// scheme", m.Logical)
		}
		if len(m.Peers) == 0 {
			return fmt.Errorf("core: shard map %s: no peers", m.Logical)
		}
		if m.ShardPath == "" {
			return fmt.Errorf("core: shard map %s: no shard path", m.Logical)
		}
		if _, err := m.recordSteps(); err != nil {
			return err
		}
		if len(m.Replicas) > len(m.Peers) {
			return fmt.Errorf("core: shard map %s: %d replica sets for %d shards",
				m.Logical, len(m.Replicas), len(m.Peers))
		}
		if opts.KnownPeers != nil {
			for _, p := range m.Peers {
				if !opts.KnownPeers[p] {
					return fmt.Errorf("%w: %s (logical %s)", ErrUnknownShardPeer, p, m.Logical)
				}
			}
			for _, rs := range m.Replicas {
				for _, p := range rs {
					if !opts.KnownPeers[p] {
						return fmt.Errorf("%w: replica %s (logical %s)", ErrUnknownShardPeer, p, m.Logical)
					}
				}
			}
		}
	}
	return nil
}

// Materialize builds the logical document from its shards: a copy of the
// first shard's tree with every later shard's records appended, in shard
// order, to the record parent. This is the fallback execution path — when a
// query cannot be rewritten into the scatter form, fn:doc(Logical) resolves
// to this union and evaluates with plain local semantics. A shard whose
// primary cannot be fetched falls over to its replicas in order; only a
// shard with no reachable copy fails the materialization, reporting the
// primary's fault.
func (m ShardMap) Materialize(uri string, fetch func(peer string) (*xdm.Document, error)) (*xdm.Document, error) {
	steps, err := m.recordSteps()
	if err != nil {
		return nil, err
	}
	docs := make([]*xdm.Document, len(m.Peers))
	for i, p := range m.Peers {
		d, err := fetch(p)
		if err != nil && i < len(m.Replicas) {
			for _, r := range m.Replicas[i] {
				if rd, rerr := fetch(r); rerr == nil {
					d, err = rd, nil
					break
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("core: materialize %s: shard %d at %s: %w", m.Logical, i, p, err)
		}
		docs[i] = d
	}
	out := xdm.NewDocument(uri)
	for _, ch := range docs[0].Root.Children {
		out.Root.AppendChild(ch.Copy())
	}
	parent, err := walkRecordParent(out.Root, m, steps)
	if err != nil {
		return nil, err
	}
	last := steps[len(steps)-1]
	for _, d := range docs[1:] {
		srcParent, err := walkRecordParent(d.Root, m, steps)
		if err != nil {
			return nil, err
		}
		for _, ch := range srcParent.Children {
			if stepMatchesElem(last, ch) {
				parent.AppendChild(ch.Copy())
			}
		}
	}
	out.Freeze()
	return out, nil
}

// walkRecordParent descends the skeleton prefix of the record path (all
// steps but the last) from a document root, taking the first matching child
// element at each level.
func walkRecordParent(root *xdm.Node, m ShardMap, steps []*xq.Step) (*xdm.Node, error) {
	cur := root
	for _, st := range steps[:len(steps)-1] {
		var next *xdm.Node
		for _, ch := range cur.Children {
			if stepMatchesElem(st, ch) {
				next = ch
				break
			}
		}
		if next == nil {
			return nil, fmt.Errorf("core: materialize %s: shard lacks skeleton element %s", m.Logical, st.Test)
		}
		cur = next
	}
	return cur, nil
}

func stepMatchesElem(st *xq.Step, n *xdm.Node) bool {
	if n.Kind != xdm.ElementNode {
		return false
	}
	return st.Test.Kind == xq.TestWildcard || st.Test.Kind == xq.TestAnyNode || n.Name == st.Test.Name
}

// ---------------------------------------------------------- rewrite pass --

// shardRewrite is the shard-aware planner pass: expressions rooted at a
// logical document (path expressions and FLWOR loops over them) are rewritten
// into the concurrent scatter form
//
//	for $p in (peers...) return execute at {$p} { <body over the local shard> }
//
// whenever the per-shard evaluation concatenated in shard order provably
// equals local evaluation over the union document. Candidates violating a
// condition are left in place — fn:doc(Logical) then materializes the union —
// and the violated condition is recorded in the decision list. AlphaRename
// must have run (Decompose guarantees it).
func shardRewrite(q *xq.Query, strat Strategy, maps []ShardMap) ([]ShardDecision, error) {
	byURI := map[string]*ShardMap{}
	recSteps := map[string][]*xq.Step{}
	for i := range maps {
		m := &maps[i]
		rs, err := m.recordSteps()
		if err != nil {
			return nil, err
		}
		byURI[m.Logical] = m
		recSteps[m.Logical] = rs
	}
	names := xq.QueryNames(q)
	declared := map[string]bool{}
	for _, f := range q.Funcs {
		declared[fmt.Sprintf("%s/%d", f.Name, len(f.Params))] = true
	}
	var decisions []ShardDecision
	attempted := map[xq.Expr]bool{}
	seq := 0
	for {
		g := Build(q.Body)
		var cand xq.Expr
		var candMap *ShardMap
		for _, v := range g.Pre {
			if attempted[v] || insideRemote(g, v) {
				continue
			}
			switch e := v.(type) {
			case *xq.ForExpr:
				if uri, _, ok := xq.RootedDoc(e.In); ok && byURI[uri] != nil {
					cand, candMap = v, byURI[uri]
				}
			case *xq.PathExpr, *xq.FunCall:
				if uri, _, ok := xq.RootedDoc(v); ok && byURI[uri] != nil {
					cand, candMap = v, byURI[uri]
				}
			}
			if cand != nil {
				break
			}
		}
		if cand == nil {
			return decisions, nil
		}
		attempted[cand] = true
		reason := scatterReason(g, cand, recSteps[candMap.Logical], strat, declared)
		if reason != "" {
			decisions = append(decisions, ShardDecision{Logical: candMap.Logical, Reason: reason})
			continue // descend into the candidate on the next scan
		}
		seq++
		x := synthScatter(q, cand, candMap, seq, names)
		decisions = append(decisions, ShardDecision{Logical: candMap.Logical, Scattered: true, X: x})
	}
}

// insideRemote reports whether v sits inside a shipped XRPCExpr body — such
// expressions execute remotely and are never rewritten.
func insideRemote(g *Graph, v xq.Expr) bool {
	for p := g.Parent[v]; p != nil; p = g.Parent[p] {
		if _, ok := p.(*xq.XRPCExpr); ok {
			return true
		}
	}
	return false
}

// scatterReason decides whether a candidate is scatter-safe, returning the
// violated condition ("" when safe). The conditions guarantee that per-shard
// results concatenated in shard order serialize identically to local
// evaluation over the union document:
//
//  1. the rooted path must enter the record sequence: its leading steps match
//     the record path exactly, with no predicates above the record step
//     (everything above records is skeleton each shard duplicates);
//  2. record-level predicates and postfix filters must be statically
//     non-positional (a position selects across shard boundaries);
//  3. every axis anywhere in the candidate is downward (child, attribute,
//     self, descendant, descendant-or-self) — reverse and horizontal axes can
//     escape a record's subtree into skeleton whose surroundings differ
//     between one shard and the union;
//  4. no positional/identity context functions (fn:position, fn:last,
//     fn:root, fn:id, fn:idref, base/document-uri), no further document
//     access (cross-shard joins stay local), no nested remote call, no
//     absolute path, and no order by over the record loop;
//  5. node comparisons and node-set operators must not mix shard records
//     with shipped parameter copies;
//  6. the generic function-shipping safety conditions of §IV–§VI hold for
//     the candidate under the session strategy (Graph.Valid).
func scatterReason(g *Graph, cand xq.Expr, rec []*xq.Step, strat Strategy, declared map[string]bool) string {
	rooted := cand
	if f, ok := cand.(*xq.ForExpr); ok {
		if len(f.OrderBy) > 0 {
			return "order by over the record loop requires a global sort"
		}
		rooted = f.In
	}
	_, steps, _ := xq.RootedDoc(rooted)
	if r := recordPrefixReason(steps, rec); r != "" {
		return r
	}
	if r := subtreeReason(cand, rootDocCall(rooted), xq.FreeVars(cand), declared); r != "" {
		return r
	}
	if !g.Valid(cand, strat) {
		return "function-shipping safety conditions (§IV–§VI) reject the subquery"
	}
	// The d-graph does not model declared-function bodies, so a consumer
	// passing the candidate's result into one could navigate the shipped
	// copies arbitrarily (e.g. upward into skeleton the fragment lacks).
	if len(declared) > 0 {
		dep := g.DependsOn(cand)
		inside := g.Subtree(cand)
		for _, n := range g.Pre {
			if fc, ok := n.(*xq.FunCall); ok && dep[n] && !inside[n] &&
				declared[fmt.Sprintf("%s/%d", fc.Name, len(fc.Args))] {
				return "result flows into a user-declared function"
			}
		}
	}
	return ""
}

// recordPrefixReason checks condition 1 and the record-level part of 2.
func recordPrefixReason(steps []*xq.Step, rec []*xq.Step) string {
	if len(steps) < len(rec) {
		return "path stops above the record sequence (the skeleton repeats on every shard)"
	}
	for i, rs := range rec {
		st := steps[i]
		if st.Filter || st.Axis != rs.Axis || !sameTest(st.Test, rs.Test) {
			return "path does not follow the record path"
		}
		if i < len(rec)-1 && len(st.Preds) > 0 {
			return "predicate above the record step"
		}
	}
	for _, p := range steps[len(rec)-1].Preds {
		if r := recordPredReason(p); r != "" {
			return r
		}
	}
	for _, st := range steps[len(rec):] {
		if !st.Filter {
			continue
		}
		// A postfix filter applies over the accumulated cross-record
		// sequence, so it is record-level too.
		for _, p := range st.Preds {
			if r := recordPredReason(p); r != "" {
				return r
			}
		}
	}
	return ""
}

func sameTest(a, b xq.NodeTest) bool {
	return a.Kind == b.Kind && (a.Kind != xq.TestName || a.Name == b.Name)
}

// recordPredReason requires a record-level predicate to be statically
// boolean-valued: positional selection (a numeric predicate, or anything that
// could evaluate to a number) would count across shard boundaries.
func recordPredReason(p xq.Expr) string {
	switch v := p.(type) {
	case *xq.CompareExpr, *xq.LogicExpr, *xq.QuantifiedExpr, *xq.PathExpr:
		return "" // boolean-valued (a path predicate tests node existence)
	case *xq.FunCall:
		switch strings.TrimPrefix(v.Name, "fn:") {
		case "exists", "empty", "not", "boolean", "contains", "starts-with",
			"true", "false", "deep-equal":
			return ""
		}
	}
	return "record-level predicate may select by position across shard boundaries"
}

// downwardAxis lists the axes that cannot leave a record's subtree.
func downwardAxis(a xq.Axis) bool {
	switch a {
	case xq.AxisChild, xq.AxisAttribute, xq.AxisSelf, xq.AxisDescendant, xq.AxisDescendantOrSelf:
		return true
	}
	return false
}

// rootDocCall returns the innermost fn:doc application of a rooted chain.
func rootDocCall(e xq.Expr) xq.Expr {
	switch v := e.(type) {
	case *xq.FunCall:
		return v
	case *xq.PathExpr:
		return rootDocCall(v.Input)
	}
	return nil
}

// subtreeReason enforces conditions 3–5 uniformly over the whole candidate.
// allowedDoc is the candidate's own root fn:doc application; outerFree names
// the variables whose values arrive as shipped parameter copies; declared
// lists the query's user-declared functions by name/arity.
func subtreeReason(cand xq.Expr, allowedDoc xq.Expr, outerFree map[string]bool, declared map[string]bool) string {
	reason := ""
	xq.Walk(cand, func(sub xq.Expr) bool {
		if reason != "" {
			return false
		}
		switch v := sub.(type) {
		case *xq.XRPCExpr, *xq.ExecuteAt:
			reason = "nested remote call"
		case *xq.RootExpr:
			reason = "absolute path escapes the record subtree"
		case *xq.FunCall:
			if sub == allowedDoc {
				return true
			}
			if declared[fmt.Sprintf("%s/%d", v.Name, len(v.Args))] {
				// The shipped body would carry neither the declaration nor
				// its (unchecked) body; the union fallback evaluates it.
				reason = "calls a user-declared function"
				return false
			}
			switch strings.TrimPrefix(v.Name, "fn:") {
			case "doc", "collection":
				reason = "additional document access (cross-shard joins stay local)"
			case "root", "id", "idref":
				reason = "document-level function escapes the record subtree"
			case "position", "last":
				reason = "positional context function cannot cross shard boundaries"
			case "base-uri", "document-uri", "static-base-uri":
				reason = "function observes shard document identity"
			}
		case *xq.PathExpr:
			for _, st := range v.Steps {
				if !st.Filter && !downwardAxis(st.Axis) {
					reason = fmt.Sprintf("%s axis can escape the record subtree", st.Axis)
					return false
				}
			}
		case *xq.CompareExpr:
			if v.Op.IsNodeComp() && touchesFree(v, outerFree) {
				reason = "node comparison against shipped parameter copies"
			}
		case *xq.NodeSetExpr:
			if touchesFree(v, outerFree) {
				reason = "node-set operator mixes shard records with shipped parameter copies"
			}
		}
		return reason == ""
	})
	return reason
}

func touchesFree(e xq.Expr, outerFree map[string]bool) bool {
	for name := range xq.FreeVars(e) {
		if outerFree[name] {
			return true
		}
	}
	return false
}

// synthScatter replaces a scatter-safe candidate with the loop
// `for $p in (peers...) return execute at {$p} { body }`: the body is the
// candidate with its root fn:doc retargeted at the peer-local shard path, and
// every free variable becomes an XRPC parameter shipped per iteration.
func synthScatter(q *xq.Query, cand xq.Expr, m *ShardMap, seq int, names *xq.Names) *xq.XRPCExpr {
	body := xq.CloneExpr(cand)
	retargetRootDoc(body, m.ShardPath)
	x := &xq.XRPCExpr{FuncName: fmt.Sprintf("shard%d", seq)}
	free := xq.FreeVars(cand)
	var order []string
	seen := map[string]bool{}
	xq.Walk(cand, func(e xq.Expr) bool {
		if ref, ok := e.(*xq.VarRef); ok && free[ref.Name] && !seen[ref.Name] {
			seen[ref.Name] = true
			order = append(order, ref.Name)
		}
		return true
	})
	subst := map[string]string{}
	for i, name := range order {
		pn := shardName(names, fmt.Sprintf("sp%d", i+1))
		subst[name] = pn
		x.Params = append(x.Params, &xq.XRPCParam{Name: pn, Ref: name})
		x.Types = append(x.Types, xq.AnyItems)
	}
	x.Body = xq.RenameFreeVars(body, subst)
	loop := xq.NewScatterLoop(shardName(names, "shardp"), m.Peers, x)
	if !replaceExpr(q, cand, loop) {
		panic("core: shard candidate not found in query")
	}
	return x
}

// retargetRootDoc swaps the URI argument of the rooted chain's innermost
// fn:doc application for the peer-local shard path.
func retargetRootDoc(e xq.Expr, path string) bool {
	switch v := e.(type) {
	case *xq.FunCall:
		v.Args[0] = xq.NewStringLiteral(path)
		return true
	case *xq.PathExpr:
		return retargetRootDoc(v.Input, path)
	case *xq.ForExpr:
		return retargetRootDoc(v.In, path)
	}
	return false
}

// shardName is base, or base_2, base_3, … when the query already uses base.
func shardName(names *xq.Names, base string) string {
	if names.Claim(base) {
		return base
	}
	n := 1
	return names.Fresh(&n, base+"_%d")
}
