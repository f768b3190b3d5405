package eval

import (
	"fmt"
	"math"
	"strings"

	"distxq/internal/xdm"
)

// builtin is one entry of the builtin function library. maxArgs -1 means
// variadic.
type builtin struct {
	minArgs, maxArgs int
	fn               func(*context, []xdm.Sequence) (xdm.Sequence, error)
}

var builtins map[string]builtin

func init() {
	builtins = map[string]builtin{
		"doc":        {1, 1, fnDoc},
		"collection": {1, 1, fnDoc}, // treated as doc(*) by the analyses (§IV)
		"root":       {0, 1, fnRoot},
		"id":         {1, 2, fnID},
		"idref":      {1, 2, fnIDRef},

		"base-uri":          {0, 1, fnBaseURI},
		"document-uri":      {1, 1, fnDocumentURI},
		"xrpc:base-uri":     {1, 1, fnBaseURI},
		"xrpc:document-uri": {1, 1, fnDocumentURI},
		"static-base-uri":   {0, 0, fnStaticBaseURI},
		"default-collation": {0, 0, fnDefaultCollation},
		"current-dateTime":  {0, 0, fnCurrentDateTime},

		"name":       {1, 1, fnName},
		"local-name": {1, 1, fnLocalName},
		"position":   {0, 0, fnPosition},
		"last":       {0, 0, fnLast},

		"string":          {1, 1, fnString},
		"number":          {1, 1, fnNumber},
		"data":            {1, 1, fnData},
		"concat":          {2, -1, fnConcat},
		"string-join":     {2, 2, fnStringJoin},
		"contains":        {2, 2, fnContains},
		"starts-with":     {2, 2, fnStartsWith},
		"substring":       {2, 3, fnSubstring},
		"string-length":   {1, 1, fnStringLength},
		"normalize-space": {1, 1, fnNormalizeSpace},
		"upper-case":      {1, 1, fnUpperCase},
		"lower-case":      {1, 1, fnLowerCase},

		"count":           {1, 1, fnCount},
		"empty":           {1, 1, fnEmpty},
		"exists":          {1, 1, fnExists},
		"not":             {1, 1, fnNot},
		"boolean":         {1, 1, fnBoolean},
		"true":            {0, 0, fnTrue},
		"false":           {0, 0, fnFalse},
		"deep-equal":      {2, 2, fnDeepEqual},
		"distinct-values": {1, 1, fnDistinctValues},
		"reverse":         {1, 1, fnReverse},
		"subsequence":     {2, 3, fnSubsequence},
		"exactly-one":     {1, 1, fnExactlyOne},
		"zero-or-one":     {1, 1, fnZeroOrOne},

		"sum":     {1, 1, fnSum},
		"avg":     {1, 1, fnAvg},
		"min":     {1, 1, fnMinMax(false)},
		"max":     {1, 1, fnMinMax(true)},
		"floor":   {1, 1, fnFloor},
		"ceiling": {1, 1, fnCeiling},
		"round":   {1, 1, fnRound},
		"abs":     {1, 1, fnAbs},
	}
}

func fnDoc(c *context, args []xdm.Sequence) (xdm.Sequence, error) {
	uri, err := singletonString(args[0], "doc() argument")
	if err != nil {
		return nil, err
	}
	d, err := c.eng.Doc(uri)
	if err != nil {
		return nil, err
	}
	return xdm.Singleton(d.Root), nil
}

func fnRoot(c *context, args []xdm.Sequence) (xdm.Sequence, error) {
	var n *xdm.Node
	if len(args) == 0 {
		cn, ok := c.item.(*xdm.Node)
		if !ok {
			return nil, fmt.Errorf("eval: root() without node context item")
		}
		n = cn
	} else {
		if len(args[0]) == 0 {
			return xdm.EmptySequence, nil
		}
		cn, ok := args[0][0].(*xdm.Node)
		if !ok {
			return nil, fmt.Errorf("eval: root() argument must be a node")
		}
		n = cn
	}
	return xdm.Singleton(n.RootNode()), nil
}

// fnID returns elements having an id attribute equal to any of the given
// values; the optional second argument supplies the document (any node of
// it). This engine treats attributes named "id" or "xml:id" as ID-typed.
func fnID(c *context, args []xdm.Sequence) (xdm.Sequence, error) {
	return idLookup(c, args, []string{"id", "xml:id"})
}

// fnIDRef is the IDREF counterpart, matching attributes named idref/idrefs.
func fnIDRef(c *context, args []xdm.Sequence) (xdm.Sequence, error) {
	return idLookup(c, args, []string{"idref", "idrefs"})
}

func idLookup(c *context, args []xdm.Sequence, attrNames []string) (xdm.Sequence, error) {
	want := map[string]bool{}
	for _, a := range args[0].Atomize() {
		for _, tok := range strings.Fields(a.ItemString()) {
			want[tok] = true
		}
	}
	var start *xdm.Node
	if len(args) == 2 && len(args[1]) == 1 {
		if n, ok := args[1][0].(*xdm.Node); ok {
			start = n
		}
	}
	if start == nil {
		if n, ok := c.item.(*xdm.Node); ok {
			start = n
		} else {
			return nil, fmt.Errorf("eval: id()/idref() requires a node context")
		}
	}
	root := start.RootNode()
	var out []*xdm.Node
	root.WalkDescendants(func(m *xdm.Node) bool {
		for _, an := range attrNames {
			if a := m.Attr(an); a != nil {
				for _, tok := range strings.Fields(a.Text) {
					if want[tok] {
						out = append(out, m)
						return true
					}
				}
			}
		}
		return true
	})
	return xdm.NodeSeq(out), nil
}

func fnBaseURI(c *context, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args) == 0 || len(args[0]) == 0 {
		return xdm.Singleton(xdm.NewString(c.static.BaseURI)), nil
	}
	n, ok := args[0][0].(*xdm.Node)
	if !ok {
		return nil, fmt.Errorf("eval: base-uri() argument must be a node")
	}
	// XRPC Problem 5 class 2: shipped nodes carry their original base URI as
	// a node property; xrpc:base-uri consults it before the document URI.
	for m := n; m != nil; m = m.Parent {
		if m.BaseURI != "" {
			return xdm.Singleton(xdm.NewString(m.BaseURI)), nil
		}
	}
	if n.Doc != nil && n.Doc.URI != "" {
		return xdm.Singleton(xdm.NewString(n.Doc.URI)), nil
	}
	return xdm.EmptySequence, nil
}

func fnDocumentURI(c *context, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) == 0 {
		return xdm.EmptySequence, nil
	}
	n, ok := args[0][0].(*xdm.Node)
	if !ok || n.Kind != xdm.DocumentNode {
		return xdm.EmptySequence, nil
	}
	if n.BaseURI != "" {
		return xdm.Singleton(xdm.NewString(n.BaseURI)), nil
	}
	if n.Doc != nil && n.Doc.URI != "" {
		return xdm.Singleton(xdm.NewString(n.Doc.URI)), nil
	}
	return xdm.EmptySequence, nil
}

func fnStaticBaseURI(c *context, _ []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.NewString(c.static.BaseURI)), nil
}

func fnDefaultCollation(c *context, _ []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.NewString(c.static.DefaultCollation)), nil
}

func fnCurrentDateTime(c *context, _ []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.NewString(c.static.CurrentDateTime)), nil
}

// fnPosition/fnLast expose the context position and size inside predicates
// (the paper's XCore keeps consecutive steps fused when position() is absent;
// supporting it in predicates does not affect the decomposition framework).
func fnPosition(c *context, _ []xdm.Sequence) (xdm.Sequence, error) {
	if c.pos == 0 {
		return nil, fmt.Errorf("eval: position() outside a predicate")
	}
	return xdm.Singleton(xdm.NewInteger(int64(c.pos))), nil
}

func fnLast(c *context, _ []xdm.Sequence) (xdm.Sequence, error) {
	if c.size == 0 {
		return nil, fmt.Errorf("eval: last() outside a predicate")
	}
	return xdm.Singleton(xdm.NewInteger(int64(c.size))), nil
}

func fnName(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) == 0 {
		return xdm.Singleton(xdm.NewString("")), nil
	}
	n, ok := args[0][0].(*xdm.Node)
	if !ok {
		return nil, fmt.Errorf("eval: name() argument must be a node")
	}
	return xdm.Singleton(xdm.NewString(n.Name)), nil
}

func fnLocalName(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) == 0 {
		return xdm.Singleton(xdm.NewString("")), nil
	}
	n, ok := args[0][0].(*xdm.Node)
	if !ok {
		return nil, fmt.Errorf("eval: local-name() argument must be a node")
	}
	name := n.Name
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name = name[i+1:]
	}
	return xdm.Singleton(xdm.NewString(name)), nil
}

func fnString(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) == 0 {
		return xdm.Singleton(xdm.NewString("")), nil
	}
	return xdm.Singleton(xdm.NewString(args[0][0].ItemString())), nil
}

func fnNumber(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	atoms := args[0].Atomize()
	if len(atoms) == 0 {
		return xdm.Singleton(xdm.NewDouble(math.NaN())), nil
	}
	return xdm.Singleton(xdm.NewDouble(atoms[0].Number())), nil
}

func fnData(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	atoms := args[0].Atomize()
	out := make(xdm.Sequence, len(atoms))
	for i, a := range atoms {
		out[i] = a
	}
	return out, nil
}

func fnConcat(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	var sb strings.Builder
	for _, a := range args {
		if len(a) > 0 {
			sb.WriteString(a[0].ItemString())
		}
	}
	return xdm.Singleton(xdm.NewString(sb.String())), nil
}

func fnStringJoin(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	sep, err := singletonString(args[1], "string-join separator")
	if err != nil {
		return nil, err
	}
	parts := make([]string, len(args[0]))
	for i, it := range args[0] {
		parts[i] = atomOf(it).ItemString()
	}
	return xdm.Singleton(xdm.NewString(strings.Join(parts, sep))), nil
}

func fnContains(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	s := seqString(args[0])
	sub := seqString(args[1])
	return xdm.Singleton(xdm.NewBoolean(strings.Contains(s, sub))), nil
}

func fnStartsWith(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.NewBoolean(
		strings.HasPrefix(seqString(args[0]), seqString(args[1])))), nil
}

func fnSubstring(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	s := []rune(seqString(args[0]))
	startAtoms := args[1].Atomize()
	if len(startAtoms) == 0 {
		return xdm.Singleton(xdm.NewString("")), nil
	}
	start := int(math.Round(startAtoms[0].Number()))
	end := len(s) + 1
	if len(args) == 3 {
		lenAtoms := args[2].Atomize()
		if len(lenAtoms) > 0 {
			end = start + int(math.Round(lenAtoms[0].Number()))
		}
	}
	lo := max(start, 1)
	hi := min(end, len(s)+1)
	if lo >= hi {
		return xdm.Singleton(xdm.NewString("")), nil
	}
	return xdm.Singleton(xdm.NewString(string(s[lo-1 : hi-1]))), nil
}

func fnStringLength(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.NewInteger(int64(len([]rune(seqString(args[0])))))), nil
}

func fnNormalizeSpace(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.NewString(strings.Join(strings.Fields(seqString(args[0])), " "))), nil
}

func fnUpperCase(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.NewString(strings.ToUpper(seqString(args[0])))), nil
}

func fnLowerCase(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.NewString(strings.ToLower(seqString(args[0])))), nil
}

func fnCount(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.NewInteger(int64(len(args[0])))), nil
}

func fnEmpty(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.NewBoolean(len(args[0]) == 0)), nil
}

func fnExists(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.NewBoolean(len(args[0]) > 0)), nil
}

func fnNot(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	b, ok := args[0].EffectiveBoolean()
	if !ok {
		return nil, fmt.Errorf("eval: invalid effective boolean in not()")
	}
	return xdm.Singleton(xdm.NewBoolean(!b)), nil
}

func fnBoolean(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	b, ok := args[0].EffectiveBoolean()
	if !ok {
		return nil, fmt.Errorf("eval: invalid effective boolean in boolean()")
	}
	return xdm.Singleton(xdm.NewBoolean(b)), nil
}

func fnTrue(_ *context, _ []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.NewBoolean(true)), nil
}

func fnFalse(_ *context, _ []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.NewBoolean(false)), nil
}

func fnDeepEqual(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.NewBoolean(xdm.DeepEqualSeq(args[0], args[1]))), nil
}

func fnDistinctValues(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	seen := map[distinctKey]bool{}
	out := xdm.Sequence{}
	for _, it := range args[0] {
		a := atomOf(it)
		if k := keyOf(a); !seen[k] {
			seen[k] = true
			out = append(out, a)
		}
	}
	return out, nil
}

// distinctKey is fn:distinct-values' equality as a comparable value. Values
// are distinct under eq: numerics compare by value across numeric types
// (every NaN is one value, -0 equals 0), and xs:untypedAtomic compares as
// xs:string (F&O); anything else by type and string.
type distinctKey struct {
	t xdm.AtomType
	s string
	f float64
}

func keyOf(a xdm.Atomic) distinctKey {
	if !a.IsNumeric() {
		t := a.T
		if t == xdm.TUntyped {
			t = xdm.TString
		}
		return distinctKey{t: t, s: a.ItemString()}
	}
	f := a.Number()
	switch {
	case math.IsNaN(f):
		return distinctKey{t: xdm.TDouble, s: "NaN"}
	case f == 0:
		f = 0 // -0 eq 0
	}
	return distinctKey{t: xdm.TDouble, f: f}
}

func fnReverse(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	in := args[0]
	out := make(xdm.Sequence, len(in))
	for i, it := range in {
		out[len(in)-1-i] = it
	}
	return out, nil
}

func fnSubsequence(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	in := args[0]
	startAtoms := args[1].Atomize()
	if len(startAtoms) == 0 {
		return xdm.EmptySequence, nil
	}
	start := int(math.Round(startAtoms[0].Number()))
	end := len(in) + 1
	if len(args) == 3 {
		lenAtoms := args[2].Atomize()
		if len(lenAtoms) > 0 {
			end = start + int(math.Round(lenAtoms[0].Number()))
		}
	}
	lo := max(start, 1)
	hi := min(end, len(in)+1)
	if lo >= hi {
		return xdm.EmptySequence, nil
	}
	return in[lo-1 : hi-1], nil
}

func fnExactlyOne(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) != 1 {
		return nil, fmt.Errorf("eval: exactly-one() got %d items", len(args[0]))
	}
	return args[0], nil
}

func fnZeroOrOne(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) > 1 {
		return nil, fmt.Errorf("eval: zero-or-one() got %d items", len(args[0]))
	}
	return args[0], nil
}

// sumOf folds s one atomized item at a time: the integer sum, the sum as
// a double, and whether every item was an integer.
func sumOf(s xdm.Sequence) (int64, float64, bool) {
	allInt := true
	var fi int64
	var ff float64
	for _, it := range s {
		a := atomOf(it)
		if a.T == xdm.TInteger {
			fi += a.I
		} else {
			allInt = false
		}
		ff += a.Number()
	}
	return fi, ff, allInt
}

func fnSum(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	fi, ff, allInt := sumOf(args[0])
	if allInt {
		return xdm.Singleton(xdm.NewInteger(fi)), nil
	}
	return xdm.Singleton(xdm.NewDouble(ff)), nil
}

func fnAvg(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) == 0 {
		return xdm.EmptySequence, nil
	}
	_, sum, _ := sumOf(args[0])
	return xdm.Singleton(xdm.NewDouble(sum / float64(len(args[0])))), nil
}

func fnMinMax(wantMax bool) func(*context, []xdm.Sequence) (xdm.Sequence, error) {
	return func(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args[0]) == 0 {
			return xdm.EmptySequence, nil
		}
		best := atomOf(args[0][0])
		for _, it := range args[0][1:] {
			a := atomOf(it)
			cmp, ok := xdm.CompareAtomics(a, best)
			if !ok {
				return nil, fmt.Errorf("eval: min()/max() over incomparable values")
			}
			if (wantMax && cmp > 0) || (!wantMax && cmp < 0) {
				best = a
			}
		}
		return xdm.Singleton(best), nil
	}
}

func fnFloor(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	return numericUnary(args[0], math.Floor)
}

func fnCeiling(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	return numericUnary(args[0], math.Ceil)
}

func fnRound(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	return numericUnary(args[0], math.Round)
}

func fnAbs(_ *context, args []xdm.Sequence) (xdm.Sequence, error) {
	return numericUnary(args[0], math.Abs)
}

func numericUnary(s xdm.Sequence, f func(float64) float64) (xdm.Sequence, error) {
	atoms := s.Atomize()
	if len(atoms) == 0 {
		return xdm.EmptySequence, nil
	}
	if atoms[0].T == xdm.TInteger {
		return xdm.Singleton(xdm.NewInteger(int64(f(float64(atoms[0].I))))), nil
	}
	return xdm.Singleton(xdm.NewDouble(f(atoms[0].Number()))), nil
}

func seqString(s xdm.Sequence) string {
	if len(s) == 0 {
		return ""
	}
	return s[0].ItemString()
}
