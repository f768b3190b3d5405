// Package xq implements the XQuery-Core dialect of the paper (Table II plus
// the XRPC extension rules 27–28): lexer, recursive-descent parser, AST,
// source printer, and normalization. The dialect covers XPath 1.0 axes,
// FLWOR expressions, typeswitch, node-set operators, element/attribute/text/
// document constructors (direct and computed), quantified expressions,
// arithmetic, and user-defined functions.
package xq

import (
	"sync/atomic"

	"distxq/internal/xdm"
)

// Query is a parsed query: prolog function declarations plus a body.
type Query struct {
	Funcs []*FuncDecl
	Body  Expr
	// normalized marks the query as already rewritten into XCore form, so
	// Normalize is a no-op read on it — required for plans shared between
	// concurrent executions (see Normalize).
	normalized bool
	// compiled caches an engine-layer compiled artifact for the query. It is
	// deliberately untyped because xq cannot import the evaluator; the
	// evaluator stores its compiled program here so every engine executing
	// the same (normalized, read-only) query — most importantly the service's
	// cached plans, which spawn a fresh engine per query — reuses one
	// compilation instead of lowering the tree again.
	compiled atomic.Value
}

// CompiledArtifact returns the engine-layer compiled artifact attached to the
// query, or nil when it has not been compiled.
func (q *Query) CompiledArtifact() any { return q.compiled.Load() }

// SetCompiledArtifact attaches an engine-layer compiled artifact. Callers
// must always store values of one concrete type.
func (q *Query) SetCompiledArtifact(a any) { q.compiled.Store(a) }

// FuncDecl is `declare function name($p as T, ...) as T { body };`.
type FuncDecl struct {
	Name   string
	Params []Param
	Return SeqType
	Body   Expr
}

// Param is a formal function parameter.
type Param struct {
	Name string
	Type SeqType
}

// Occurrence indicators for sequence types.
const (
	OccurOne      = byte(0)
	OccurOptional = byte('?')
	OccurStar     = byte('*')
	OccurPlus     = byte('+')
)

// SeqType is a sequence type such as node()*, xs:string, item()?.
type SeqType struct {
	// Item is the item-type name: "node()", "element()", "text()",
	// "item()", "empty-sequence()", or an atomic type name like "xs:string".
	Item  string
	Occur byte
}

// String renders the sequence type in XQuery syntax.
func (t SeqType) String() string {
	if t.Occur == OccurOne {
		return t.Item
	}
	return t.Item + string(t.Occur)
}

// AnyItems is the most permissive sequence type, item()*.
var AnyItems = SeqType{Item: "item()", Occur: OccurStar}

// Expr is any expression node.
type Expr interface{ exprNode() }

// Literal is a string, integer, decimal or boolean literal. In a template
// (ParseTemplate) a holed literal reads argument Hole-1 of the run's vector,
// and Val is the value of the text it was parsed from; Hole is 0 otherwise.
type Literal struct {
	Val  xdm.Atomic
	Hole int
}

// VarRef is a variable reference $name.
type VarRef struct{ Name string }

// ContextItem is the "." expression.
type ContextItem struct{}

// ForExpr is `for $v in In [order by ...] return Return`. A non-empty
// OrderBy makes this vertex count as both a ForExpr and an OrderExpr rule in
// the dependency graph.
type ForExpr struct {
	Var     string
	In      Expr
	OrderBy []OrderSpec
	Return  Expr
}

// OrderSpec is one `order by` key.
type OrderSpec struct {
	Key        Expr
	Descending bool
}

// LetExpr is `let $v := Bind return Return`.
type LetExpr struct {
	Var    string
	Bind   Expr
	Return Expr
}

// IfExpr is `if (Cond) then Then else Else`.
type IfExpr struct{ Cond, Then, Else Expr }

// QuantifiedExpr is `some|every $v in In satisfies Satisfies`.
type QuantifiedExpr struct {
	Every     bool
	Var       string
	In        Expr
	Satisfies Expr
}

// TypeswitchExpr is `typeswitch (Operand) case ... default ...`.
type TypeswitchExpr struct {
	Operand    Expr
	Cases      []*TSCase
	DefaultVar string // may be empty
	Default    Expr
}

// TSCase is `case $v as T return E`.
type TSCase struct {
	Var    string // may be empty
	Type   SeqType
	Return Expr
}

// CompOp enumerates comparison operators.
type CompOp uint8

// Comparison operators: value/general and node comparisons.
const (
	OpEq CompOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpIs     // node identity
	OpBefore // <<
	OpAfter  // >>
)

func (o CompOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpIs:
		return "is"
	case OpBefore:
		return "<<"
	case OpAfter:
		return ">>"
	}
	return "?"
}

// IsNodeComp reports whether the operator is a node comparison (rule 14).
func (o CompOp) IsNodeComp() bool { return o == OpIs || o == OpBefore || o == OpAfter }

// CompareExpr is a general/value comparison (rule 12) or node comparison
// (rule 14). General comparisons have existential semantics over sequences.
type CompareExpr struct {
	Op          CompOp
	Left, Right Expr
}

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpIDiv
	OpMod
)

func (o ArithOp) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "div"
	case OpIDiv:
		return "idiv"
	case OpMod:
		return "mod"
	}
	return "?"
}

// ArithExpr is Left op Right.
type ArithExpr struct {
	Op          ArithOp
	Left, Right Expr
}

// UnaryExpr is -Operand or +Operand.
type UnaryExpr struct {
	Neg     bool
	Operand Expr
}

// LogicExpr is `and`/`or`.
type LogicExpr struct {
	And         bool
	Left, Right Expr
}

// SeqExpr is sequence construction: "()" (empty Items) or (e1, e2, ...).
type SeqExpr struct{ Items []Expr }

// SetOp enumerates node-set operators (rule 18).
type SetOp uint8

// Node-set operators.
const (
	OpUnion SetOp = iota
	OpIntersect
	OpExcept
)

func (o SetOp) String() string {
	switch o {
	case OpUnion:
		return "union"
	case OpIntersect:
		return "intersect"
	case OpExcept:
		return "except"
	}
	return "?"
}

// NodeSetExpr is union/intersect/except.
type NodeSetExpr struct {
	Op          SetOp
	Left, Right Expr
}

// Axis enumerates XPath axes (rules 22–24).
type Axis uint8

// XPath axes.
const (
	AxisChild Axis = iota
	AxisAttribute
	AxisSelf
	AxisDescendant
	AxisDescendantOrSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisPreceding
	AxisPrecedingSibling
	AxisFollowing
	AxisFollowingSibling
)

// Reverse reports whether the axis runs against document order, so that
// positions on it count from the context node outward: ancestor,
// ancestor-or-self, preceding and preceding-sibling.
func (a Axis) Reverse() bool {
	return a == AxisAncestor || a == AxisAncestorOrSelf || a == AxisPreceding || a == AxisPrecedingSibling
}

func (a Axis) String() string {
	switch a {
	case AxisChild:
		return "child"
	case AxisAttribute:
		return "attribute"
	case AxisSelf:
		return "self"
	case AxisDescendant:
		return "descendant"
	case AxisDescendantOrSelf:
		return "descendant-or-self"
	case AxisParent:
		return "parent"
	case AxisAncestor:
		return "ancestor"
	case AxisAncestorOrSelf:
		return "ancestor-or-self"
	case AxisPreceding:
		return "preceding"
	case AxisPrecedingSibling:
		return "preceding-sibling"
	case AxisFollowing:
		return "following"
	case AxisFollowingSibling:
		return "following-sibling"
	}
	return "?"
}

// ParseAxis resolves an axis name.
func ParseAxis(name string) (Axis, bool) {
	for a := AxisChild; a <= AxisFollowingSibling; a++ {
		if a.String() == name {
			return a, true
		}
	}
	return AxisChild, false
}

// IsReverse reports whether the axis is a reverse axis (rule 22).
func (a Axis) IsReverse() bool {
	return a == AxisParent || a == AxisAncestor || a == AxisAncestorOrSelf
}

// IsHorizontal reports whether the axis is a horizontal axis (rule 24).
func (a Axis) IsHorizontal() bool {
	switch a {
	case AxisPreceding, AxisPrecedingSibling, AxisFollowing, AxisFollowingSibling:
		return true
	}
	return false
}

// NonOverlapping reports whether a step over this axis from an ordered,
// non-overlapping input yields an ordered, non-overlapping result (the axis
// whitelist in insertion condition iii: parent, preceding-sibling,
// following-sibling, self, child, attribute).
func (a Axis) NonOverlapping() bool {
	switch a {
	case AxisParent, AxisPrecedingSibling, AxisFollowingSibling, AxisSelf,
		AxisChild, AxisAttribute:
		return true
	}
	return false
}

// TestKind enumerates node tests (rule 25).
type TestKind uint8

// Node tests.
const (
	TestName TestKind = iota // QName
	TestWildcard
	TestAnyNode // node()
	TestText    // text()
	TestComment // comment()
)

// NodeTest is the node test of a step.
type NodeTest struct {
	Kind TestKind
	Name string // for TestName
}

// String renders the node test.
func (t NodeTest) String() string {
	switch t.Kind {
	case TestName:
		return t.Name
	case TestWildcard:
		return "*"
	case TestAnyNode:
		return "node()"
	case TestText:
		return "text()"
	case TestComment:
		return "comment()"
	}
	return "?"
}

// Step is one axis step with optional predicates. A Filter step is not an
// axis navigation but a postfix filter expression E[p]: its predicates apply
// positionally over the whole input sequence (which may contain atomics),
// per the XQuery distinction between steps and filter expressions.
type Step struct {
	Axis   Axis
	Test   NodeTest
	Preds  []Expr
	Filter bool
}

// PathExpr is a (possibly multi-step) path. Input nil means the path starts
// at the context item; otherwise Input supplies the context sequence. Keeping
// consecutive steps together mirrors the paper's XCore path representation.
type PathExpr struct {
	Input Expr
	Steps []*Step
}

// RootExpr is the leading "/" of an absolute path: the root of the tree
// containing the context item.
type RootExpr struct{}

// ElemConstructor is `element name {content}`, `element {nameExpr} {content}`
// or a direct constructor `<name attr="v">...</name>`. Direct constructors
// are desugared at parse time: attributes become AttrConstructors at the
// front of Content.
type ElemConstructor struct {
	Name     string // static name; empty if NameExpr is set
	NameExpr Expr
	Content  []Expr
}

// AttrConstructor is `attribute name {value}` or a direct attribute.
type AttrConstructor struct {
	Name     string
	NameExpr Expr
	Value    []Expr
}

// TextConstructor is `text {expr}` or literal text in a direct constructor.
type TextConstructor struct{ Content Expr }

// DocConstructor is `document {expr}`.
type DocConstructor struct{ Content Expr }

// FunCall is a builtin or user-defined function application (rule 26).
type FunCall struct {
	Name string
	Args []Expr
}

// ExecuteAt is the surface XRPC statement:
// `execute at {Target} {FunApp(ParamList)}` (the actual XRPC syntax).
type ExecuteAt struct {
	Target Expr
	Call   *FunCall
}

// XRPCExpr is the XCore form (rule 27): an anonymous function Body to be
// executed at Target with XRPCParam bindings (rule 28). The decomposer
// produces these; Normalize converts surface ExecuteAt into this form by
// inlining the named function.
type XRPCExpr struct {
	Target Expr
	Params []*XRPCParam
	Body   Expr
	// FuncName is a stable generated name for the shipped function (fcn0,
	// fcn1, ...) used in messages and printed decompositions.
	FuncName string
	// Types carries declared parameter types when the expression came from
	// inlining a declared function; nil means item()*.
	Types []SeqType
	// ReturnedOnly marks a call whose result reaches the query result
	// unchanged and is never navigated, compared or atomized (core.Decompose
	// sets it): its shipped nodes may stay the bytes they travelled as.
	ReturnedOnly bool
	// module retains the rendered shipped declaration once a cache has proven
	// the expression reused (see xrpc.RetainModules); concurrent executions of
	// a cached plan read it while its first hit stores it.
	module atomic.Pointer[Template]
}

// RetainedModule returns the shipped declaration retained for x, or nil when
// none was retained and every call renders its own.
func (x *XRPCExpr) RetainedModule() *Template { return x.module.Load() }

// RetainModule stores the shipped declaration every later call of x sends.
func (x *XRPCExpr) RetainModule(t *Template) { x.module.Store(t) }

// XRPCParam is `$Name := $Ref` (rule 28): the remote body sees $Name bound
// to the value of the caller's variable $Ref.
type XRPCParam struct {
	Name string
	Ref  string
}

func (*Literal) exprNode()         {}
func (*VarRef) exprNode()          {}
func (*ContextItem) exprNode()     {}
func (*ForExpr) exprNode()         {}
func (*LetExpr) exprNode()         {}
func (*IfExpr) exprNode()          {}
func (*QuantifiedExpr) exprNode()  {}
func (*TypeswitchExpr) exprNode()  {}
func (*CompareExpr) exprNode()     {}
func (*ArithExpr) exprNode()       {}
func (*UnaryExpr) exprNode()       {}
func (*LogicExpr) exprNode()       {}
func (*SeqExpr) exprNode()         {}
func (*NodeSetExpr) exprNode()     {}
func (*PathExpr) exprNode()        {}
func (*RootExpr) exprNode()        {}
func (*ElemConstructor) exprNode() {}
func (*AttrConstructor) exprNode() {}
func (*TextConstructor) exprNode() {}
func (*DocConstructor) exprNode()  {}
func (*FunCall) exprNode()         {}
func (*ExecuteAt) exprNode()       {}
func (*XRPCExpr) exprNode()        {}
