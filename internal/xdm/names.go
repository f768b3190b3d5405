package xdm

import (
	"slices"
	"sync"
)

// nameLists is a served document's per-name element lists. A name gets an
// entry when a walk first finds it, so the table is bounded by the
// document's names. The entry counts the nodes its walks visit; once they
// reach the document's node count, the next step builds the list (ski
// rental: at most one extra document walk per name).
type nameLists struct {
	mu    sync.Mutex
	lists map[string]*nameList
}

type nameList struct {
	walked int // nodes the walks for the name visited; guarded by nameLists.mu
	once   sync.Once
	nodes  []*Node // written once, inside once
	pres   []int32 // the nodes' ranks, searched without touching a node
}

// ServeNames gives a frozen document its per-name element lists, which
// Node.Named reads. Documents served through fn:doc get them; message
// documents, fragments and constructed trees never do. It is idempotent.
func (d *Document) ServeNames() {
	if d.frozen && d.names.Load() == nil {
		d.names.CompareAndSwap(nil, &nameLists{})
	}
}

// Named returns the elements named name in n's subtree, n included, in
// document order, once n's document has built the name's list. Otherwise
// ok is false and the caller walks, which counts toward the list; when
// untracked, the name has no entry yet, and a walk that finds it must say
// so with FoundNamed.
func (n *Node) Named(name string) (els []*Node, ok, untracked bool) {
	if n.Doc == nil || n.Doc.names.Load() == nil {
		return nil, false, false
	}
	t := n.Doc.names.Load()
	t.mu.Lock()
	l := t.lists[name]
	walk := l != nil && l.walked < n.Doc.nnodes
	if walk {
		l.walked += int(n.size)
	}
	t.mu.Unlock()
	if l == nil || walk {
		return nil, false, l == nil
	}
	l.once.Do(func() {
		n.Doc.Root.WalkDescendants(func(m *Node) bool {
			if m.Kind == ElementNode && m.Name == name {
				l.nodes, l.pres = append(l.nodes, m), append(l.pres, m.pre)
			}
			return true
		})
	})
	lo, _ := slices.BinarySearch(l.pres, n.pre)
	hi, _ := slices.BinarySearch(l.pres[lo:], n.pre+n.size)
	return l.nodes[lo : lo+hi], true, false
}

// FoundNamed records that a walk of n's subtree found an element named
// name: the name is in the document, so it gets an entry, credited with
// that walk.
func (n *Node) FoundNamed(name string) {
	t := n.Doc.names.Load()
	t.mu.Lock()
	if t.lists == nil {
		t.lists = map[string]*nameList{}
	}
	if t.lists[name] == nil {
		t.lists[name] = &nameList{walked: int(n.size)}
	}
	t.mu.Unlock()
}
