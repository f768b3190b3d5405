package xdm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Item is one member of an XQuery sequence: a node, an atomic value or a Raw.
type Item interface {
	isItem()
	// ItemString returns the string value of the item (fn:string semantics).
	ItemString() string
}

func (*Node) isItem() {}

// ItemString implements Item for nodes.
func (n *Node) ItemString() string { return n.StringValue() }

// Raw is a remote result the query only returns, kept as the XML a peer
// shipped it as, which is what Serialize writes for it (Scanner.Canonical).
// The sequence serializer copies XML; Node builds a copy to navigate.
type Raw struct {
	Kind Kind
	XML  string
}

func (*Raw) isItem() {}

// ItemString implements Item: the string value of the node XML holds.
func (r *Raw) ItemString() string { return r.Node().StringValue() }

// Node builds the node r holds: a document's root, else the root's one child.
func (r *Raw) Node() *Node {
	doc, sc := NewDocument("raw"), new(Scanner)
	sc.Reset(r.XML, "raw")
	if err := sc.fill(doc.Root, false); err != nil { // canonical bytes are well-formed
		panic(err)
	}
	if doc.Freeze(); r.Kind == DocumentNode {
		return doc.Root
	}
	return doc.Root.Children[0]
}

// AtomType enumerates the atomic types this engine supports.
type AtomType uint8

const (
	// TString is xs:string.
	TString AtomType = iota
	// TBoolean is xs:boolean.
	TBoolean
	// TInteger is xs:integer.
	TInteger
	// TDouble is xs:double (also used for xs:decimal results).
	TDouble
	// TUntyped is xs:untypedAtomic (atomized node content).
	TUntyped
)

func (t AtomType) String() string {
	switch t {
	case TString:
		return "xs:string"
	case TBoolean:
		return "xs:boolean"
	case TInteger:
		return "xs:integer"
	case TDouble:
		return "xs:double"
	case TUntyped:
		return "xs:untypedAtomic"
	}
	return fmt.Sprintf("AtomType(%d)", uint8(t))
}

// ParseAtomType maps a lexical xs: type name to an AtomType.
func ParseAtomType(name string) (AtomType, bool) {
	switch name {
	case "xs:string", "string":
		return TString, true
	case "xs:boolean", "boolean":
		return TBoolean, true
	case "xs:integer", "integer", "xs:int", "xs:long":
		return TInteger, true
	case "xs:double", "double", "xs:decimal", "xs:float":
		return TDouble, true
	case "xs:untypedAtomic", "untypedAtomic", "xs:anyAtomicType":
		return TUntyped, true
	}
	return TString, false
}

// Atomic is an atomic value item.
type Atomic struct {
	T AtomType
	S string  // TString, TUntyped
	B bool    // TBoolean
	I int64   // TInteger
	F float64 // TDouble
}

func (Atomic) isItem() {}

// NewString returns an xs:string atomic.
func NewString(s string) Atomic { return Atomic{T: TString, S: s} }

// NewUntyped returns an xs:untypedAtomic atomic.
func NewUntyped(s string) Atomic { return Atomic{T: TUntyped, S: s} }

// NewBoolean returns an xs:boolean atomic.
func NewBoolean(b bool) Atomic { return Atomic{T: TBoolean, B: b} }

// NewInteger returns an xs:integer atomic.
func NewInteger(i int64) Atomic { return Atomic{T: TInteger, I: i} }

// NewDouble returns an xs:double atomic.
func NewDouble(f float64) Atomic { return Atomic{T: TDouble, F: f} }

// ItemString renders the atomic per XPath casting-to-string rules.
func (a Atomic) ItemString() string {
	switch a.T {
	case TString, TUntyped:
		return a.S
	case TBoolean:
		if a.B {
			return "true"
		}
		return "false"
	case TInteger:
		return strconv.FormatInt(a.I, 10)
	case TDouble:
		return FormatDouble(a.F)
	}
	return ""
}

// FormatDouble renders an xs:double using XPath conventions (integral values
// without a decimal point, NaN/INF spellings).
func FormatDouble(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "INF"
	case math.IsInf(f, -1):
		return "-INF"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatInt(int64(f), 10)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

// Number returns the numeric value of the atomic (NaN for non-numeric
// strings), implementing fn:number coercion.
func (a Atomic) Number() float64 {
	switch a.T {
	case TInteger:
		return float64(a.I)
	case TDouble:
		return a.F
	case TBoolean:
		if a.B {
			return 1
		}
		return 0
	default:
		s := strings.TrimSpace(a.S)
		if s == "" || !mayStartNumber(s[0]) {
			return math.NaN() // what ParseFloat says, without its error value
		}
		if f, ok := parseDecimal(s); ok {
			return f
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	}
}

// parseDecimal reads an optional sign, digits and an optional fraction with
// at most 15 significant digits and no exponent, without ParseFloat. The
// mantissa (below 2^53) and the power of ten (at most 1e22) are exact, so
// one division rounds correctly (Clinger's fast path) and equals
// ParseFloat's result bit for bit. ok is false for any other text.
func parseDecimal(s string) (f float64, ok bool) {
	i, neg := 0, false
	if s[0] == '+' || s[0] == '-' {
		neg, i = s[0] == '-', 1
	}
	var m uint64
	digits, sig, frac, point := 0, 0, 0, false
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case c == '.' && !point:
			point = true
		case '0' <= c && c <= '9':
			digits++
			if m = m*10 + uint64(c-'0'); m != 0 {
				sig++
			}
			if point {
				frac++
			}
		default:
			return 0, false
		}
	}
	if digits == 0 || sig > 15 || frac > 22 {
		return 0, false
	}
	if f = float64(m) / math.Pow10(frac); neg {
		f = -f
	}
	return f, true
}

// mayStartNumber reports whether c can begin text strconv.ParseFloat
// accepts: a sign, a digit, a point, or the first letter of inf or nan.
func mayStartNumber(c byte) bool {
	switch c {
	case '+', '-', '.', 'i', 'I', 'n', 'N':
		return true
	}
	return '0' <= c && c <= '9'
}

// IsNumeric reports whether the atomic carries a numeric type.
func (a Atomic) IsNumeric() bool { return a.T == TInteger || a.T == TDouble }

// Sequence is an ordered XQuery sequence of items. A nil Sequence is the
// empty sequence.
type Sequence []Item

// EmptySequence is the canonical empty sequence.
var EmptySequence = Sequence{}

// Singleton wraps one item in a sequence.
func Singleton(it Item) Sequence { return Sequence{it} }

// Nodes extracts the nodes of a sequence, erroring via ok=false if any item
// is atomic.
func (s Sequence) Nodes() ([]*Node, bool) {
	out := make([]*Node, 0, len(s))
	for _, it := range s {
		n, isNode := it.(*Node)
		if !isNode {
			return nil, false
		}
		out = append(out, n)
	}
	return out, true
}

// NodeSeq wraps a node slice as a sequence.
func NodeSeq(nodes []*Node) Sequence {
	out := make(Sequence, len(nodes))
	for i, n := range nodes {
		out[i] = n
	}
	return out
}

// Atomize converts every item to an atomic value: nodes become untypedAtomic
// of their string value.
func (s Sequence) Atomize() []Atomic {
	out := make([]Atomic, 0, len(s))
	for _, it := range s {
		switch v := it.(type) {
		case *Node:
			out = append(out, NewUntyped(v.StringValue()))
		case Atomic:
			out = append(out, v)
		}
	}
	return out
}

// EffectiveBoolean computes the effective boolean value; ok=false signals the
// FORG0006 type error (e.g. a multi-atomic sequence).
func (s Sequence) EffectiveBoolean() (val, ok bool) {
	if len(s) == 0 {
		return false, true
	}
	if _, isNode := s[0].(*Node); isNode {
		return true, true
	}
	if len(s) > 1 {
		return false, false
	}
	a := s[0].(Atomic)
	switch a.T {
	case TBoolean:
		return a.B, true
	case TString, TUntyped:
		return a.S != "", true
	case TInteger:
		return a.I != 0, true
	case TDouble:
		return a.F != 0 && !math.IsNaN(a.F), true
	}
	return false, false
}

// String renders a sequence for debugging and test golden files.
func (s Sequence) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, it := range s {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch v := it.(type) {
		case *Node:
			fmt.Fprintf(&sb, "%s(%s)", v.Kind, v.Name)
		case Atomic:
			sb.WriteString(v.ItemString())
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// CompareAtomics compares two atomics under XPath value-comparison rules
// with numeric promotion; untyped values compare as strings against strings
// and as numbers against numbers. ok=false signals an incomparable pair.
func CompareAtomics(a, b Atomic) (cmp int, ok bool) {
	if a.T == TBoolean || b.T == TBoolean {
		if a.T != TBoolean || b.T != TBoolean {
			return 0, false
		}
		x, y := 0, 0
		if a.B {
			x = 1
		}
		if b.B {
			y = 1
		}
		return x - y, true
	}
	numeric := a.IsNumeric() || b.IsNumeric()
	if numeric {
		x, y := a.Number(), b.Number()
		if math.IsNaN(x) || math.IsNaN(y) {
			return 0, false
		}
		switch {
		case x < y:
			return -1, true
		case x > y:
			return 1, true
		default:
			return 0, true
		}
	}
	return strings.Compare(a.ItemString(), b.ItemString()), true
}

// DeepEqualSeq implements fn:deep-equal over two sequences, a Raw as its Node.
func DeepEqualSeq(a, b Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		an, aIsNode := asNode(a[i])
		bn, bIsNode := asNode(b[i])
		if aIsNode != bIsNode {
			return false
		}
		if aIsNode {
			if !DeepEqualNode(an, bn) {
				return false
			}
			continue
		}
		c, ok := CompareAtomics(a[i].(Atomic), b[i].(Atomic))
		if !ok || c != 0 {
			return false
		}
	}
	return true
}

// asNode returns the node an item is or, for a Raw, holds.
func asNode(it Item) (*Node, bool) {
	if r, ok := it.(*Raw); ok {
		return r.Node(), true
	}
	n, ok := it.(*Node)
	return n, ok
}

// DeepEqualNode implements fn:deep-equal over two nodes: same kind and name,
// equal attribute sets, and pairwise deep-equal element/text children
// (comments are ignored, as the spec prescribes).
func DeepEqualNode(a, b *Node) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case TextNode, CommentNode:
		return a.Text == b.Text
	case AttributeNode:
		return a.Name == b.Name && a.Text == b.Text
	}
	if a.Kind == ElementNode && a.Name != b.Name {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for _, aa := range a.Attrs {
		ba := b.Attr(aa.Name)
		if ba == nil || ba.Text != aa.Text {
			return false
		}
	}
	ac := significantChildren(a)
	bc := significantChildren(b)
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if !DeepEqualNode(ac[i], bc[i]) {
			return false
		}
	}
	return true
}

func significantChildren(n *Node) []*Node {
	out := make([]*Node, 0, len(n.Children))
	for _, c := range n.Children {
		if c.Kind == CommentNode {
			continue
		}
		out = append(out, c)
	}
	return out
}
