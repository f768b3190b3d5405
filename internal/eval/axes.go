package eval

import (
	"fmt"
	"slices"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// evalPath evaluates a (possibly multi-step) path expression. Each step maps
// the current node sequence through its axis and node test, filters by
// predicates, and re-establishes distinct document order — the XPath
// semantics whose preservation under node shipping is the core concern of
// the paper.
func (c *context) evalPath(pe *xq.PathExpr) (xdm.Sequence, error) {
	var cur xdm.Sequence
	switch {
	case pe.Input != nil:
		s, err := c.eval(pe.Input)
		if err != nil {
			return nil, err
		}
		cur = s
	case c.item != nil:
		cur = xdm.Singleton(c.item)
	default:
		return nil, fmt.Errorf("eval: relative path with undefined context item")
	}
	// Node steps work on two scratch buffers that ping-pong between "current
	// context nodes" and "gather target", so a multi-step path allocates at
	// most two node slices total instead of one per context node per step.
	var curNodes, spare []*xdm.Node
	haveNodes := false
	for _, st := range pe.Steps {
		if st.Filter {
			if haveNodes {
				cur = xdm.NodeSeq(curNodes)
				haveNodes = false
			}
			// A copy: a variable may hold the sequence.
			filtered, err := filterPreds(c, slices.Clone(cur), st.Preds, false)
			if err != nil {
				return nil, err
			}
			cur = filtered
			continue
		}
		nodes := curNodes
		if !haveNodes {
			var ok bool
			nodes, ok = cur.Nodes()
			if !ok {
				return nil, fmt.Errorf("eval: path step %s::%s applied to atomic value", st.Axis, st.Test)
			}
		}
		gathered, err := c.evalStep(nodes, st, spare[:0])
		if err != nil {
			return nil, err
		}
		spare = nodes[:0] // the consumed context buffer becomes the next target
		curNodes, haveNodes = gathered, true
	}
	if haveNodes {
		cur = xdm.NodeSeq(curNodes)
	}
	return cur, nil
}

// evalStep maps one non-filter path step over its context nodes: per context
// node, gather the axis candidates and apply the step predicates within that
// segment, then re-establish distinct document order across segments. dst is
// the gather buffer (evalPath passes its ping-pong scratch slice). A single
// context node yields document-ordered, duplicate-free results on every axis;
// only unions across context nodes can disturb order (and SortDocOrder
// detects ordered unions in O(n)).
func (c *context) evalStep(nodes []*xdm.Node, st *xq.Step, dst []*xdm.Node) ([]*xdm.Node, error) {
	gathered := dst
	for _, n := range nodes {
		start := len(gathered)
		var err error
		if gathered, err = gatherAxis(gathered, n, st.Axis, st.Test, c.stop); err != nil {
			return nil, err
		}
		if len(st.Preds) > 0 {
			seg, err := filterPreds(c, gathered[start:], st.Preds, st.Axis.Reverse())
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

// filterPreds applies predicates to items: a step's candidates for one
// context node, in document order, or a filter expression's sequence. A
// predicate evaluating to a number selects by position; otherwise its
// effective boolean value filters. Positions count from the context node
// outward, so against document order on a reverse axis. items is
// compacted in place and the result aliases it.
func filterPreds[T xdm.Item](c *context, items []T, preds []xq.Expr, reverse bool) ([]T, error) {
	for _, pred := range preds {
		kept := items[:0]
		size := len(items)
		for i, it := range items {
			pos := i + 1
			if reverse {
				pos = size - i
			}
			s, err := c.withItem(it, pos, size).eval(pred)
			if err != nil {
				return nil, err
			}
			if len(s) == 1 {
				if a, isAtom := s[0].(xdm.Atomic); isAtom && a.IsNumeric() {
					if int(a.Number()) == pos {
						kept = append(kept, it)
					}
					continue
				}
			}
			b, ok := s.EffectiveBoolean()
			if !ok {
				return nil, fmt.Errorf("eval: invalid predicate value")
			}
			if b {
				kept = append(kept, it)
			}
		}
		items = kept
	}
	return items, nil
}

// AxisNodes appends the nodes reached from n over the axis that satisfy the
// node test to dst, in document order, and returns the extended slice. It is
// exported for the projection package, which evaluates projection paths with
// the engine's own axis semantics (§VI-B: runtime projection "relies on the
// normal XPath evaluation capabilities of the XQuery engine").
func AxisNodes(dst []*xdm.Node, n *xdm.Node, axis xq.Axis, test xq.NodeTest) []*xdm.Node {
	nodes, _ := gatherAxis(dst, n, axis, test, nil) // no deadline, no error
	return nodes
}

// gatherAxis appends one context node's axis candidates to dst, in document
// order. Child and attribute steps — the hot ones — are slice walks with no
// sink call per candidate; self and the descendant axes go through walkAxis
// with an appending sink, so a named descendant step over a served document
// reads its per-name list; the other axes check the deadline once and defer
// to appendAxisNodes. A nil stop never fails.
func gatherAxis(dst []*xdm.Node, n *xdm.Node, axis xq.Axis, test xq.NodeTest, stop *stopCheck) ([]*xdm.Node, error) {
	switch axis {
	case xq.AxisChild, xq.AxisAttribute:
		cands := n.Attrs
		if axis == xq.AxisChild {
			cands = nil
			if n.Kind != xdm.AttributeNode {
				cands = n.Children
			}
			dst = reserve(dst, len(cands))
		}
		for _, m := range cands {
			if err := stop.check(); err != nil {
				return nil, err
			}
			if matchTest(m, axis, test) {
				dst = append(dst, m)
			}
		}
		return dst, nil
	case xq.AxisSelf, xq.AxisDescendant, xq.AxisDescendantOrSelf:
		_, err := walkAxis(n, axis, test, stop, func(m *xdm.Node) (bool, error) {
			dst = append(dst, m)
			return true, nil
		})
		return dst, err
	}
	if err := stop.check(); err != nil {
		return nil, err
	}
	return appendAxisNodes(dst, n, axis, test), nil
}

// reserve returns s with room for n more elements, doubling like append when
// it must grow. Unlike slices.Grow it never allocates a temporary, not even
// under the race detector, so the allocation ceilings hold there too.
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(make([]T, 0, max(2*cap(s), len(s)+n)), s...)
}

// nodeSink consumes one candidate node of an axis walk. It returns false to
// end the walk early (consumer satisfied) and an error to abort it.
type nodeSink func(*xdm.Node) (bool, error)

// walkAxis feeds the nodes of a downward axis of n that pass the node test to
// the sink, in document order, and walkSubtree is the one subtree scanner:
// gatherAxis collects with them, a streamed step pushes through them, and a
// streamed comparison stops them at the first match. A named descendant step
// over a served document reads the name's element list instead, once built
// (xdm.Node.Named); a walk that first finds a name gives it its entry. It
// returns false when the sink ended the walk early. The deadline is checked
// per visited node, so a budget can cut a huge step mid-flight in either
// executor.
func walkAxis(n *xdm.Node, axis xq.Axis, test xq.NodeTest, stop *stopCheck, sink nodeSink) (bool, error) {
	switch axis {
	case xq.AxisChild:
		if n.Kind == xdm.AttributeNode {
			return true, nil
		}
		for _, ch := range n.Children {
			if cont, err := visitNode(ch, axis, test, stop, sink); !cont || err != nil {
				return cont, err
			}
		}
	case xq.AxisAttribute:
		for _, a := range n.Attrs {
			if cont, err := visitNode(a, axis, test, stop, sink); !cont || err != nil {
				return cont, err
			}
		}
	case xq.AxisSelf:
		return visitNode(n, axis, test, stop, sink)
	case xq.AxisDescendant, xq.AxisDescendantOrSelf:
		if test.Kind == xq.TestName {
			els, ok, untracked := n.Named(test.Name)
			if ok {
				if axis == xq.AxisDescendant && len(els) > 0 && els[0] == n {
					els = els[1:]
				}
				for _, m := range els {
					if cont, err := visitNode(m, axis, test, stop, sink); !cont || err != nil {
						return cont, err
					}
				}
				return true, nil
			}
			if untracked {
				inner, found := sink, false
				sink = func(m *xdm.Node) (bool, error) {
					if !found {
						found = true
						n.FoundNamed(test.Name)
					}
					return inner(m)
				}
			}
		}
		if axis == xq.AxisDescendantOrSelf {
			return walkSubtree(n, axis, test, stop, sink)
		}
		for _, ch := range n.Children {
			if cont, err := walkSubtree(ch, axis, test, stop, sink); !cont || err != nil {
				return cont, err
			}
		}
	default:
		return false, fmt.Errorf("eval: axis %s is not a downward axis", axis)
	}
	return true, nil
}

// walkSubtree visits n and its descendants (attributes excluded) in document
// order — exactly the pre-order interval [n.Pre(), n.Pre()+n.SubtreeSize()).
// It visits inline rather than through visitNode: a call per node would
// slow every descendant scan.
func walkSubtree(n *xdm.Node, axis xq.Axis, test xq.NodeTest, stop *stopCheck, sink nodeSink) (bool, error) {
	if err := stop.check(); err != nil {
		return false, err
	}
	if matchTest(n, axis, test) {
		if cont, err := sink(n); !cont || err != nil {
			return cont, err
		}
	}
	for _, ch := range n.Children {
		if cont, err := walkSubtree(ch, axis, test, stop, sink); !cont || err != nil {
			return cont, err
		}
	}
	return true, nil
}

// visitNode is one visited node of a child, attribute or self walk: the
// deadline check, then the node test, then the sink.
func visitNode(m *xdm.Node, axis xq.Axis, test xq.NodeTest, stop *stopCheck, sink nodeSink) (bool, error) {
	if err := stop.check(); err != nil {
		return false, err
	}
	if !matchTest(m, axis, test) {
		return true, nil
	}
	return sink(m)
}

// appendAxisNodes appends the nodes reached from n over a non-downward axis
// (parent, ancestor*, sibling, following, preceding) that satisfy the node
// test to dst, in document order, and returns the extended slice.
func appendAxisNodes(dst []*xdm.Node, n *xdm.Node, axis xq.Axis, test xq.NodeTest) []*xdm.Node {
	switch axis {
	case xq.AxisParent:
		if n.Parent != nil && matchTest(n.Parent, axis, test) {
			dst = append(dst, n.Parent)
		}
	case xq.AxisAncestor, xq.AxisAncestorOrSelf:
		start := n.Parent
		if axis == xq.AxisAncestorOrSelf {
			start = n
		}
		first := len(dst)
		for p := start; p != nil; p = p.Parent {
			if matchTest(p, axis, test) {
				dst = append(dst, p)
			}
		}
		// document order: root first
		for i, j := first, len(dst)-1; i < j; i, j = i+1, j-1 {
			dst[i], dst[j] = dst[j], dst[i]
		}
	case xq.AxisFollowingSibling:
		if n.Parent == nil || n.Kind == xdm.AttributeNode {
			return dst
		}
		sibs := n.Parent.Children
		idx := int(n.SiblingIndex())
		if idx >= len(sibs) || sibs[idx] != n {
			idx = -1
			for i, sib := range sibs {
				if sib == n {
					idx = i
					break
				}
			}
			if idx < 0 {
				return dst
			}
		}
		for _, sib := range sibs[idx+1:] {
			if matchTest(sib, axis, test) {
				dst = append(dst, sib)
			}
		}
	case xq.AxisPrecedingSibling:
		if n.Parent == nil || n.Kind == xdm.AttributeNode {
			return dst
		}
		for _, sib := range n.Parent.Children {
			if sib == n {
				break
			}
			if matchTest(sib, axis, test) {
				dst = append(dst, sib)
			}
		}
	case xq.AxisFollowing:
		start := n
		if n.Kind == xdm.AttributeNode {
			start = n.Parent
		}
		for f := start.Following(); f != nil; f = f.NextInDocument() {
			if matchTest(f, axis, test) {
				dst = append(dst, f)
			}
		}
	case xq.AxisPreceding:
		// All nodes before n in document order, excluding ancestors (the
		// ancestor test is an O(1) pre/size interval check on frozen trees).
		root := n.RootNode()
		target := n
		if n.Kind == xdm.AttributeNode {
			target = n.Parent
		}
		root.WalkDescendants(func(m *xdm.Node) bool {
			if m == target {
				return false
			}
			if !m.IsAncestorOf(target) && matchTest(m, axis, test) {
				dst = append(dst, m)
			}
			return true
		})
	}
	return dst
}

// matchTest applies the node test. The principal node kind of the attribute
// axis is attribute; of every other axis, element.
func matchTest(n *xdm.Node, axis xq.Axis, test xq.NodeTest) bool {
	switch test.Kind {
	case xq.TestAnyNode:
		return true
	case xq.TestText:
		return n.Kind == xdm.TextNode
	case xq.TestComment:
		return n.Kind == xdm.CommentNode
	case xq.TestWildcard:
		if axis == xq.AxisAttribute {
			return n.Kind == xdm.AttributeNode
		}
		return n.Kind == xdm.ElementNode
	case xq.TestName:
		if axis == xq.AxisAttribute {
			return n.Kind == xdm.AttributeNode && n.Name == test.Name
		}
		return n.Kind == xdm.ElementNode && n.Name == test.Name
	}
	return false
}
