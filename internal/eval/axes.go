package eval

import (
	"fmt"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

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
// per visited node, so a budget can cut a huge step mid-flight.
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
