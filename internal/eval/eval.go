package eval

import (
	"cmp"
	stdcontext "context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// constructorSeq numbers constructed trees; each element constructor creates
// a fresh document with an artificial URI, exactly the doc(vi::vi) treatment
// of §IV.
var constructorSeq atomic.Uint64

// unsupported is the fault of an expression the evaluator rejects.
func unsupported(e xq.Expr) error {
	if _, ok := e.(*xq.ExecuteAt); ok {
		return errors.New("eval: unnormalized execute-at expression (call xq.Normalize first)")
	}
	return fmt.Errorf("eval: unsupported expression %T", e)
}

// emptyKey stands for an empty order-by key, the least key of any column.
var emptyKey = xdm.Atomic{T: xdm.AtomType(255)}

// orderKey is the sort key of one evaluated order-by key: its single atom,
// or emptyKey for an empty key.
func orderKey(ks xdm.Sequence) (xdm.Atomic, error) {
	switch len(ks) {
	case 0:
		return emptyKey, nil
	case 1:
		return atomOf(ks[0]), nil
	}
	return xdm.Atomic{}, fmt.Errorf("eval: order by key is a sequence")
}

// sortOrdered returns the order of an order-by loop's iterations, given
// their keys row by row (len(specs) per iteration): a permutation of their
// indexes, sorted by their keys, ties in input order. Each key column is
// checked whole first: it faults when any two of its keys are not
// comparable, whatever the input order, and a column holding a number
// compares all its keys as numbers. So the comparator is a total order and
// the sort cannot change the result.
func sortOrdered(keys []xdm.Atomic, specs []xq.OrderSpec) ([]int32, error) {
	w := len(specs)
	for k := range specs {
		if err := normalizeColumn(keys, k, w); err != nil {
			return nil, err
		}
	}
	perm := make([]int32, len(keys)/w)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int {
		for k, spec := range specs {
			a, b := keys[int(i)*w+k], keys[int(j)*w+k]
			c := cmp.Compare(b2i(a.T != emptyKey.T), b2i(b.T != emptyKey.T))
			if c == 0 && a.T != emptyKey.T {
				c, _ = xdm.CompareAtomics(a, b)
			}
			if spec.Descending {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return cmp.Compare(i, j)
	})
	return perm, nil
}

// normalizeColumn checks that every two non-empty keys of column k are
// comparable and, when the column holds a number, turns its keys into
// doubles.
func normalizeColumn(keys []xdm.Atomic, k, w int) error {
	var n, bools, nums int
	for i := k; i < len(keys); i += w {
		switch a := keys[i]; {
		case a.T == emptyKey.T:
			continue
		case a.T == xdm.TBoolean:
			bools++
		case a.IsNumeric():
			nums++
		}
		n++
	}
	if n < 2 || nums == 0 && (bools == 0 || bools == n) {
		return nil
	}
	for i := k; i < len(keys); i += w {
		if a := keys[i]; a.T != emptyKey.T {
			f := a.Number()
			if a.T == xdm.TBoolean || math.IsNaN(f) {
				return fmt.Errorf("eval: order by keys are not comparable")
			}
			keys[i] = xdm.NewDouble(f)
		}
	}
	return nil
}

// atomOf atomizes one item: a node becomes the untyped atom of its string
// value (Sequence.Atomize, item by item).
func atomOf(it xdm.Item) xdm.Atomic {
	if n, ok := it.(*xdm.Node); ok {
		return xdm.NewUntyped(n.StringValue())
	}
	return it.(xdm.Atomic)
}

// ------------------------------------------------------------ remote calls --
//
// Compiled code evaluates a remote call's target and parameters and hands
// the values to the Engine routines below, which do everything after: Bulk
// RPC, partitioning by peer, the concurrent or streamed wave, reassembly in
// loop order and the first-genuine-error rule.

// errNoRemote is the fault of execute-at on an engine without a remote
// caller.
var errNoRemote = errors.New("eval: no remote caller configured for execute at")

func unboundParam(ref string) error {
	return fmt.Errorf("eval: XRPC parameter references unbound $%s", ref)
}

// callRemote performs one remote call.
func (e *Engine) callRemote(target string, x *xq.XRPCExpr, params []xdm.Sequence) (xdm.Sequence, error) {
	e.mu.Lock()
	e.Stats.RemoteCalls++
	e.mu.Unlock()
	return e.Remote.CallRemote(target, x, params)
}

// bulk performs one Bulk RPC carrying every iteration of a loop and appends
// the results, in loop order, to dst.
func (e *Engine) bulk(dst xdm.Sequence, target string, x *xq.XRPCExpr, iterations [][]xdm.Sequence) (xdm.Sequence, error) {
	e.mu.Lock()
	e.Stats.BulkCalls++
	e.mu.Unlock()
	results, err := e.Remote.CallRemoteBulk(target, x, iterations)
	if err != nil {
		return nil, err
	}
	if len(results) != len(iterations) {
		return nil, fmt.Errorf("eval: bulk RPC returned %d results for %d calls", len(results), len(iterations))
	}
	for _, r := range results {
		dst = append(dst, r...)
	}
	return dst, nil
}

// scatter dispatches a variable-target loop — iteration i bound for
// targets[i] — as one wave of per-peer Bulk RPCs, whose lanes place their
// results at their loop positions, and appends the results, in loop order,
// to dst. Of the lanes' errors, that of the batch whose peer appeared first
// in the loop wins, cancellation echoes skipped. That is independent of
// goroutine scheduling when at most one lane fails genuinely, or when every
// lane is a gather-whole exchange over the in-memory transport; otherwise a
// fault can cancel an earlier lane before that lane's own fault arrives
// (DESIGN.md "Cancellation").
func (e *Engine) scatter(dst xdm.Sequence, x *xq.XRPCExpr, targets []string, iterations [][]xdm.Sequence) (xdm.Sequence, error) {
	// Partition by destination peer: batches in order of each peer's first
	// appearance in the loop, iterations in loop order within a batch, and
	// p.lanes[b].pos[k] the loop position of batch b's k-th iteration.
	var batches []ScatterBatch
	p := &placement{out: make([]xdm.Sequence, len(targets))}
	for i, t := range targets {
		b := 0
		for b < len(batches) && batches[b].Target != t {
			b++
		}
		if b == len(batches) {
			batches = append(batches, ScatterBatch{Target: t, Replicas: e.replicasFor(x, t)})
			p.lanes = append(p.lanes, placed{})
		}
		batches[b].Iterations = append(batches[b].Iterations, iterations[i])
		p.lanes[b].pos = append(p.lanes[b].pos, i)
	}
	e.mu.Lock()
	e.Stats.BulkCalls += len(batches)
	e.Stats.ScatterWaves++
	e.mu.Unlock()
	errs := e.Remote.CallRemoteScatter(x, batches, p)
	if len(errs) != len(batches) {
		return nil, fmt.Errorf("eval: scatter dispatch returned %d errors for %d batches", len(errs), len(batches))
	}
	// The error of the batch whose peer appeared first in the loop wins —
	// unless that error is only the echo of the dispatcher cancelling the
	// lane because a later batch genuinely failed: then the genuine failure
	// (the first one in batch order) is the deterministic winner.
	errB := -1
	for b, err := range errs {
		if err == nil {
			continue
		}
		if errB < 0 {
			errB = b
		}
		if !errors.Is(err, stdcontext.Canceled) {
			errB = b
			break
		}
	}
	if errB >= 0 {
		return nil, fmt.Errorf("eval: scatter to %s: %w", batches[errB].Target, errs[errB])
	}
	for b, l := range p.lanes {
		if !l.seen || l.cur+1 != len(l.pos) {
			return nil, fmt.Errorf("eval: scatter to %s: results for %d calls end at call %d",
				batches[b].Target, len(l.pos), l.cur)
		}
	}
	for _, s := range p.out {
		dst = append(dst, s...)
	}
	return dst, nil
}

// placement is the ScatterSink of one scatter. Lanes write disjoint loop
// positions, and the dispatcher returns only once every lane has finished,
// which orders their writes before scatter reads them.
type placement struct {
	lanes []placed
	out   []xdm.Sequence // per loop position
}

// placed is one batch's share of a placement: the loop position of each of
// its iterations, and how far its lane has placed.
type placed struct {
	pos  []int
	cur  int  // the iteration being placed
	seen bool // cur has been placed at least once
}

// Place implements ScatterSink, holding each lane to its order: iterations
// in order, none skipped.
func (p *placement) Place(b, k int, items xdm.Sequence) error {
	l := &p.lanes[b]
	switch {
	case k == l.cur:
	case k == l.cur+1 && l.seen:
		l.cur++
	case k > l.cur:
		return fmt.Errorf("eval: lane skipped iteration %d", l.cur)
	default:
		return fmt.Errorf("eval: lane placed iteration %d after %d", k, l.cur)
	}
	if k >= len(l.pos) {
		return fmt.Errorf("eval: lane placed iteration %d of %d", k, len(l.pos))
	}
	l.seen = true
	// The first increment of an iteration is taken as it stands, clipped so
	// that appending later ones never writes into its array.
	i := l.pos[k]
	if p.out[i] == nil {
		p.out[i] = slices.Clip(items)
	} else {
		p.out[i] = append(p.out[i], items...)
	}
	return nil
}

// generalCompareAtoms decides the existential general comparison over
// atomized operands: some pair satisfies op under generalPair. lm and rm
// are the memos of operands a loop memoizes, nil for others. A `=` probes a
// hash index instead of scanning pairs: with exactly one memoized operand of
// more than 4 atoms (the §VII semijoin), that operand's index, built once
// per loop run; with none or two, an index of ra when both sides have more
// than 4 atoms.
func generalCompareAtoms(op xq.CompOp, la, ra []xdm.Atomic, lm, rm *atomMemo) bool {
	if op == xq.OpEq && (lm == nil) != (rm == nil) {
		m, probe := lm, ra
		if m == nil {
			m, probe = rm, la
		}
		if len(m.atoms) > 4 {
			return m.ix.over(m.atoms).matchesAny(probe)
		}
	} else if op == xq.OpEq && len(la) > 4 && len(ra) > 4 {
		return new(eqIndex).over(ra).matchesAny(la)
	}
	for _, a := range la {
		for _, b := range ra {
			if cmp, ok := generalPair(a, b); ok && compareSatisfies(op, cmp) {
				return true
			}
		}
	}
	return false
}

// generalPair is the pair rule of a general comparison: CompareAtomics,
// except that xs:string against a numeric is incomparable (XPTY0004; only
// untyped values take the other operand's type). Incomparable pairs
// contribute false.
func generalPair(a, b xdm.Atomic) (int, bool) {
	if a.T == xdm.TString && b.IsNumeric() || b.T == xdm.TString && a.IsNumeric() {
		return 0, false
	}
	return xdm.CompareAtomics(a, b)
}

// atomMemo holds a memoized comparison operand's atomized value (nil until
// first use: Atomize never returns nil) and its `=` index.
type atomMemo struct {
	atoms []xdm.Atomic
	ix    eqIndex
}

// atomize returns s.Atomize() for s the value of the operand m memoizes,
// atomized once; a nil m memoizes nothing.
func (m *atomMemo) atomize(s xdm.Sequence) []xdm.Atomic {
	if m == nil {
		return s.Atomize()
	}
	if m.atoms == nil {
		m.atoms = s.Atomize()
	}
	return m.atoms
}

// eqIndex is a hash index deciding ∃b: generalPair(a, b) = 0 for a probe
// atom a. Strings and untypeds are keyed by their text; numerics and the
// untypeds that parse as a number by value, mapped to whether a numeric has
// it, since untyped meets untyped only as text. NaN is never stored and
// never found, and Go's map keys -0 and 0 alike, as == does.
type eqIndex struct {
	text  map[string]struct{}
	nums  map[float64]bool
	bools [2]bool
	built bool
}

// over returns ix indexing atoms, built on the first call.
func (ix *eqIndex) over(atoms []xdm.Atomic) *eqIndex {
	if ix.built {
		return ix
	}
	ix.built = true
	for _, b := range atoms {
		switch {
		case b.T == xdm.TBoolean:
			ix.bools[b2i(b.B)] = true
		case b.IsNumeric():
			ix.addNum(b.Number(), true)
		default:
			if ix.text == nil {
				ix.text = make(map[string]struct{}, len(atoms))
			}
			ix.text[b.S] = struct{}{}
			if b.T == xdm.TUntyped {
				ix.addNum(b.Number(), false)
			}
		}
	}
	return ix
}

func (ix *eqIndex) addNum(v float64, numeric bool) {
	if math.IsNaN(v) {
		return
	}
	if ix.nums == nil {
		ix.nums = map[float64]bool{}
	}
	ix.nums[v] = ix.nums[v] || numeric
}

// matchesAny reports whether some probe atom equals some indexed atom.
func (ix *eqIndex) matchesAny(probe []xdm.Atomic) bool {
	for _, a := range probe {
		var hit bool
		switch {
		case a.T == xdm.TBoolean:
			hit = ix.bools[b2i(a.B)]
		case a.IsNumeric():
			_, hit = ix.nums[a.Number()]
		default:
			_, hit = ix.text[a.S]
			if !hit && a.T == xdm.TUntyped && len(ix.nums) > 0 {
				hit = ix.nums[a.Number()]
			}
		}
		if hit {
			return true
		}
	}
	return false
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func compareSatisfies(op xq.CompOp, cmp int) bool {
	switch op {
	case xq.OpEq:
		return cmp == 0
	case xq.OpNe:
		return cmp != 0
	case xq.OpLt:
		return cmp < 0
	case xq.OpLe:
		return cmp <= 0
	case xq.OpGt:
		return cmp > 0
	case xq.OpGe:
		return cmp >= 0
	}
	return false
}

func nodeCompare(op xq.CompOp, l, r xdm.Sequence) (xdm.Sequence, error) {
	if len(l) == 0 || len(r) == 0 {
		return xdm.EmptySequence, nil
	}
	if len(l) != 1 || len(r) != 1 {
		return nil, fmt.Errorf("eval: node comparison requires singleton operands")
	}
	ln, lok := l[0].(*xdm.Node)
	rn, rok := r[0].(*xdm.Node)
	if !lok || !rok {
		return nil, fmt.Errorf("eval: node comparison requires node operands")
	}
	var b bool
	switch op {
	case xq.OpIs:
		b = ln == rn
	case xq.OpBefore:
		b = xdm.Compare(ln, rn) < 0
	case xq.OpAfter:
		b = xdm.Compare(ln, rn) > 0
	}
	return xdm.Singleton(xdm.NewBoolean(b)), nil
}

// arithCombine applies one arithmetic operator to atomized operands — the
// scalar kernel, including the integer fast path and the exact zero-division faults.
func arithCombine(op xq.ArithOp, la, ra []xdm.Atomic) (xdm.Sequence, error) {
	if len(la) == 0 || len(ra) == 0 {
		return xdm.EmptySequence, nil
	}
	if len(la) != 1 || len(ra) != 1 {
		return nil, fmt.Errorf("eval: arithmetic over sequences")
	}
	a, b := la[0], ra[0]
	bothInt := a.T == xdm.TInteger && b.T == xdm.TInteger
	switch op {
	case xq.OpAdd, xq.OpSub, xq.OpMul, xq.OpMod:
		if bothInt {
			var res int64
			switch op {
			case xq.OpAdd:
				res = a.I + b.I
			case xq.OpSub:
				res = a.I - b.I
			case xq.OpMul:
				res = a.I * b.I
			case xq.OpMod:
				if b.I == 0 {
					return nil, fmt.Errorf("eval: integer mod by zero")
				}
				res = a.I % b.I
			}
			return xdm.Singleton(xdm.NewInteger(res)), nil
		}
		x, y := a.Number(), b.Number()
		var res float64
		switch op {
		case xq.OpAdd:
			res = x + y
		case xq.OpSub:
			res = x - y
		case xq.OpMul:
			res = x * y
		case xq.OpMod:
			res = math.Mod(x, y)
		}
		return xdm.Singleton(xdm.NewDouble(res)), nil
	case xq.OpDiv:
		y := b.Number()
		if y == 0 {
			return nil, fmt.Errorf("eval: division by zero")
		}
		return xdm.Singleton(xdm.NewDouble(a.Number() / y)), nil
	case xq.OpIDiv:
		y := b.Number()
		if y == 0 {
			return nil, fmt.Errorf("eval: integer division by zero")
		}
		return xdm.Singleton(xdm.NewInteger(int64(a.Number() / y))), nil
	}
	return nil, fmt.Errorf("eval: unknown arithmetic operator")
}

// nodeSetCombine applies one node-set operator to evaluated operands — the
// kernel.
func nodeSetCombine(op xq.SetOp, l, r xdm.Sequence) (xdm.Sequence, error) {
	ln, ok := l.Nodes()
	if !ok {
		return nil, fmt.Errorf("eval: %s over non-node operand", op)
	}
	rn, ok := r.Nodes()
	if !ok {
		return nil, fmt.Errorf("eval: %s over non-node operand", op)
	}
	inRight := map[*xdm.Node]bool{}
	for _, n := range rn {
		inRight[n] = true
	}
	var out []*xdm.Node
	switch op {
	case xq.OpUnion:
		out = append(append(out, ln...), rn...)
	case xq.OpIntersect:
		for _, n := range ln {
			if inRight[n] {
				out = append(out, n)
			}
		}
	case xq.OpExcept:
		for _, n := range ln {
			if !inRight[n] {
				out = append(out, n)
			}
		}
	}
	return xdm.NodeSeq(xdm.SortDocOrder(out)), nil
}

// ------------------------------------------------------------ constructors --

// treeBuilder is the construction routine every constructor shares. A
// constructor describes its tree as a stream of events — open an element or
// document node, set attributes, add content under XQuery constructor
// semantics, close — and finish cuts the tree's nodes from the run's chunks,
// with a new constructed document above it.
// Nested direct constructors open inside their parent, so their nodes are
// built in place instead of into a document of their own and deep-copied
// out of it. A constructor evaluated inside another's content expression
// starts its own tree on top of the events in flight and finishes before
// the outer one resumes, so one builder serves a whole evaluation. It is the
// run's construction arena: its trees share chunks of nodes and windows
// (slab), documents (docs) and URIs (uris), which start at 8 entries and
// double per tree up to chunkCap (DESIGN.md "Constructors compile onto one
// builder").
type treeBuilder struct {
	ev    []buildEvent
	stack []int  // event index of every open node, innermost last
	join  []byte // adjacent atomics of the content being added
	slab  xdm.Slab
	docs  xdm.Documents
	uris  xdm.URIs
	chunk int // size of the chunks the next tree starts
}

// chunkCap bounds the arena's chunks: the unused tail of the last ones is
// waste, so a larger cap trades allocated bytes for allocations.
const chunkCap = 64

// buildEvent is one node of a tree under construction: an open element or
// document node (kind ElementNode/DocumentNode), an attribute, a text node,
// or a deep copy of src. An open node's attribute events follow it
// directly — an attribute can only arrive before its first child — then
// its children's events.
type buildEvent struct {
	kind          xdm.Kind
	name, text    string
	src           *xdm.Node
	nattr, nchild int
	// seen records that a content expression of this open node produced
	// items: an attribute constructor may no longer follow.
	seen bool
}

// open opens an element: the root of a new tree, or (nested) one built in
// place as the next child of the innermost open node.
func (b *treeBuilder) open(name string, nested bool) {
	if nested {
		b.addChild(buildEvent{kind: xdm.ElementNode, name: name})
	} else {
		b.ev = append(b.ev, buildEvent{kind: xdm.ElementNode, name: name})
	}
	b.stack = append(b.stack, len(b.ev)-1)
}

// close closes the innermost open node.
func (b *treeBuilder) close() { b.stack = b.stack[:len(b.stack)-1] }

// abort drops the events of the tree started at mark after a fault.
func (b *treeBuilder) abort(mark int) {
	b.ev = b.ev[:mark]
	for len(b.stack) > 0 && b.stack[len(b.stack)-1] >= mark {
		b.close()
	}
}

// top is the innermost open node.
func (b *treeBuilder) top() *buildEvent { return &b.ev[b.stack[len(b.stack)-1]] }

// addChild appends a child event to the innermost open node, which has seen
// content from now on.
func (b *treeBuilder) addChild(e buildEvent) {
	top := b.top()
	top.nchild++
	top.seen = true
	b.ev = append(b.ev, e)
}

// attr sets an attribute of the innermost open node, replacing one of the
// same name in place (Node.SetAttr).
func (b *treeBuilder) attr(name, value string) {
	at := b.stack[len(b.stack)-1]
	for i := at + 1; i <= at+b.ev[at].nattr; i++ {
		if b.ev[i].name == name {
			b.ev[i].text = value
			return
		}
	}
	b.ev[at].nattr++
	b.ev = append(b.ev, buildEvent{kind: xdm.AttributeNode, name: name, text: value})
}

// constructedAttr adds the attribute an attribute constructor in the open
// element's content built.
func (b *treeBuilder) constructedAttr(name, value string) error {
	if b.top().seen {
		return fmt.Errorf("eval: attribute %s constructed after element content", name)
	}
	b.attr(name, value)
	return nil
}

// text adds a text node child (a nested text constructor's).
func (b *treeBuilder) text(s string) {
	b.addChild(buildEvent{kind: xdm.TextNode, text: s})
}

// content adds the value of one content expression under XQuery
// constructor semantics: nodes are deep-copied (a document node contributes
// copies of its children, an attribute node becomes an attribute — only
// before any child), and adjacent atomics join with a single space into one
// text node.
func (b *treeBuilder) content(s xdm.Sequence) error {
	var first string
	pending := 0
	flush := func() {
		switch pending {
		case 0:
			return
		case 1:
			b.text(first)
		default:
			b.text(string(b.join))
		}
		pending = 0
	}
	for _, it := range s {
		switch n := it.(type) {
		case xdm.Atomic:
			switch pending {
			case 0:
				first = n.ItemString()
			case 1:
				b.join = append(b.join[:0], first...)
				fallthrough
			default:
				b.join = append(append(b.join, ' '), n.ItemString()...)
			}
			pending++
		case *xdm.Node:
			flush()
			switch n.Kind {
			case xdm.AttributeNode:
				if b.top().nchild > 0 {
					return fmt.Errorf("eval: attribute node after element content")
				}
				b.attr(n.Name, n.Text)
			case xdm.DocumentNode:
				for _, ch := range n.Children {
					b.addChild(buildEvent{src: ch})
				}
			default:
				b.addChild(buildEvent{src: n})
			}
		}
	}
	flush()
	if len(s) > 0 {
		b.top().seen = true
	}
	return nil
}

// finish builds the tree started at mark into a new constructed document,
// drops its events and returns its root: the element, or the document node
// itself.
func (b *treeBuilder) finish(mark int) *xdm.Node {
	n := 0
	for _, e := range b.ev[mark:] {
		switch {
		case e.src != nil:
			n += e.src.SubtreeNodes()
		case e.kind != xdm.DocumentNode:
			n++
		}
	}
	b.chunk = min(max(2*b.chunk, 8), chunkCap)
	b.slab.Expect(max(n, b.chunk))
	if len(b.docs) == 0 {
		b.docs, b.uris = make(xdm.Documents, b.chunk), xdm.NewURIs(&constructorSeq, "constructed://", b.chunk)
	}
	d := b.docs.New(b.uris.Next()) // after the content: its number orders the trees
	root := d.Root
	if b.ev[mark].kind == xdm.ElementNode {
		root = b.slab.Node(xdm.ElementNode, b.ev[mark].name, "")
		d.Root.Children = b.slab.Window(1)
		d.Root.Children[0] = root
	}
	b.build(mark, root)
	b.ev = b.ev[:mark]
	d.Freeze()
	return root
}

// build gives node n, opened by event i, its attributes and children from
// the slab and returns the index after its last event.
func (b *treeBuilder) build(i int, n *xdm.Node) int {
	n.Attrs = b.slab.Window(b.ev[i].nattr)
	n.Children = b.slab.Window(b.ev[i].nchild)
	j := i + 1
	for k := range n.Attrs {
		n.Attrs[k] = b.slab.Node(xdm.AttributeNode, b.ev[j].name, b.ev[j].text)
		j++
	}
	for k := range n.Children {
		switch e := &b.ev[j]; {
		case e.src != nil:
			n.Children[k] = b.slab.Copy(e.src)
			j++
		case e.kind == xdm.TextNode:
			n.Children[k] = b.slab.Node(xdm.TextNode, "", e.text)
			j++
		default:
			el := b.slab.Node(xdm.ElementNode, e.name, "")
			n.Children[k] = el
			j = b.build(j, el)
		}
	}
	return j
}

// textTree constructs a text node in a document of its own.
func (b *treeBuilder) textTree(s string) *xdm.Node {
	mark := len(b.ev)
	b.ev = append(b.ev, buildEvent{kind: xdm.DocumentNode})
	b.stack = append(b.stack, mark)
	b.text(s)
	b.close()
	return b.finish(mark).Children[0]
}

// docTree constructs a document node holding content s.
func (b *treeBuilder) docTree(s xdm.Sequence) (*xdm.Node, error) {
	mark := len(b.ev)
	b.ev = append(b.ev, buildEvent{kind: xdm.DocumentNode})
	b.stack = append(b.stack, mark)
	if err := b.content(s); err != nil {
		b.abort(mark)
		return nil, err
	}
	b.close()
	return b.finish(mark), nil
}

// joinAtoms is the string of a sequence's atomized items joined by single
// spaces — a text constructor's or attribute value part's content.
func joinAtoms(s xdm.Sequence) string {
	switch len(s) {
	case 0:
		return ""
	case 1:
		return s[0].ItemString()
	}
	var sb strings.Builder
	for i, it := range s {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(it.ItemString())
	}
	return sb.String()
}

func singletonString(s xdm.Sequence, what string) (string, error) {
	if len(s) != 1 {
		return "", fmt.Errorf("eval: %s must be a single item, got %d", what, len(s))
	}
	return s[0].ItemString(), nil
}

// ---------------------------------------------------------- loop memos --
//
// A comparison operand invariant in a for loop around it is evaluated once
// per run of the outermost such loop — the stand-in for Pathfinder's
// loop-lifting that makes the §VII semijoin a hash join. Its memo fills on
// first use and empties when that loop starts again, so results and faults
// are those of evaluating it every time. Compiled code keeps memos in slots
// (fnCompiler.operand).

// pinned reports whether comparison operand e may be memoized while the
// variables it reads keep their values: a path or a function call that
// constructs no node, calls no peer and reads no focus (`.`, `/`, a
// relative path, readsFocus). visit sees each variable e reads but does not
// bind; pinned fails as soon as visit does.
func pinned(e xq.Expr, visit func(name string) bool) bool {
	switch e.(type) {
	case *xq.PathExpr, *xq.FunCall:
		return pinnedIn(e, nil, visit)
	}
	return false
}

// pinnedIn is pinned for a part of the operand, under its binders inner.
func pinnedIn(e xq.Expr, inner *scope, visit func(string) bool) bool {
	switch v := e.(type) {
	case *xq.VarRef:
		_, own := inner.lookup(v.Name)
		return own || visit(v.Name)
	case *xq.ElemConstructor, *xq.AttrConstructor, *xq.TextConstructor, *xq.DocConstructor,
		*xq.XRPCExpr, *xq.ExecuteAt, *xq.ContextItem, *xq.RootExpr:
		return false
	case *xq.PathExpr:
		if v.Input == nil {
			return false
		}
	case *xq.FunCall:
		if readsFocus(v) {
			return false
		}
	}
	ok := true
	xq.Slots(e, func(s xq.Slot) {
		if ok {
			in := inner
			if s.Var != nil {
				in = &scope{name: *s.Var, next: inner}
			}
			ok = pinnedIn(*s.Expr, in, visit)
		}
	})
	return ok
}

// readsFocus reports whether call v reads the focus when it names a
// builtin: position(), last(), root() without an argument, and id() and
// idref(), whose node argument falls back to the focus.
func readsFocus(v *xq.FunCall) bool {
	switch strings.TrimPrefix(v.Name, "fn:") {
	case "position", "last", "id", "idref":
		return true
	case "root":
		return len(v.Args) == 0
	}
	return false
}

// filled is s as a memo holds it: nil marks a memo not yet filled.
func filled(s xdm.Sequence) xdm.Sequence {
	if s == nil {
		return xdm.EmptySequence
	}
	return s
}
