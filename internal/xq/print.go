package xq

import (
	"fmt"
	"strings"

	"distxq/internal/xdm"
)

// Print renders an expression to canonical XQuery-Core source text that the
// parser accepts again (modulo whitespace). This is how decomposed function
// bodies are shipped inside XRPC messages.
func Print(e Expr) string {
	var sb strings.Builder
	printExpr(&sb, e, false)
	return sb.String()
}

// PrintQuery renders a full query with its prolog.
func PrintQuery(q *Query) string {
	var sb strings.Builder
	for _, f := range q.Funcs {
		sb.WriteString(PrintFuncDecl(f))
		sb.WriteString("\n")
	}
	printExpr(&sb, q.Body, false)
	return sb.String()
}

// PrintFuncDecl renders one function declaration.
func PrintFuncDecl(f *FuncDecl) string {
	var sb strings.Builder
	sb.WriteString("declare function ")
	sb.WriteString(f.Name)
	sb.WriteString("(")
	for i, par := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("$")
		sb.WriteString(par.Name)
		sb.WriteString(" as ")
		sb.WriteString(par.Type.String())
	}
	sb.WriteString(") as ")
	sb.WriteString(f.Return.String())
	sb.WriteString(" { ")
	printExpr(&sb, f.Body, false)
	sb.WriteString(" };")
	return sb.String()
}

// printExpr writes e; paren requests parenthesization when e is a binary or
// flow expression appearing in an operand position.
func printExpr(sb *strings.Builder, e Expr, paren bool) {
	switch v := e.(type) {
	case nil:
		sb.WriteString("()")
	case *Literal:
		printLiteral(sb, v.Val)
	case *VarRef:
		sb.WriteString("$")
		sb.WriteString(v.Name)
	case *ContextItem:
		sb.WriteString(".")
	case *RootExpr:
		sb.WriteString("/")
	case *ForExpr:
		open(sb, paren)
		fmt.Fprintf(sb, "for $%s in ", v.Var)
		printExpr(sb, v.In, true)
		if len(v.OrderBy) > 0 {
			sb.WriteString(" order by ")
			for i, s := range v.OrderBy {
				if i > 0 {
					sb.WriteString(", ")
				}
				printExpr(sb, s.Key, true)
				if s.Descending {
					sb.WriteString(" descending")
				}
			}
		}
		sb.WriteString(" return ")
		printExpr(sb, v.Return, true)
		clos(sb, paren)
	case *LetExpr:
		open(sb, paren)
		fmt.Fprintf(sb, "let $%s := ", v.Var)
		printExpr(sb, v.Bind, true)
		sb.WriteString(" return ")
		printExpr(sb, v.Return, true)
		clos(sb, paren)
	case *IfExpr:
		open(sb, paren)
		sb.WriteString("if (")
		printExpr(sb, v.Cond, false)
		sb.WriteString(") then ")
		printExpr(sb, v.Then, true)
		sb.WriteString(" else ")
		printExpr(sb, v.Else, true)
		clos(sb, paren)
	case *QuantifiedExpr:
		open(sb, paren)
		if v.Every {
			sb.WriteString("every")
		} else {
			sb.WriteString("some")
		}
		fmt.Fprintf(sb, " $%s in ", v.Var)
		printExpr(sb, v.In, true)
		sb.WriteString(" satisfies ")
		printExpr(sb, v.Satisfies, true)
		clos(sb, paren)
	case *TypeswitchExpr:
		open(sb, paren)
		sb.WriteString("typeswitch (")
		printExpr(sb, v.Operand, false)
		sb.WriteString(")")
		for _, c := range v.Cases {
			sb.WriteString(" case ")
			if c.Var != "" {
				fmt.Fprintf(sb, "$%s as ", c.Var)
			}
			sb.WriteString(c.Type.String())
			sb.WriteString(" return ")
			printExpr(sb, c.Return, true)
		}
		sb.WriteString(" default ")
		if v.DefaultVar != "" {
			fmt.Fprintf(sb, "$%s ", v.DefaultVar)
		}
		sb.WriteString("return ")
		printExpr(sb, v.Default, true)
		clos(sb, paren)
	case *CompareExpr:
		open(sb, paren)
		printExpr(sb, v.Left, true)
		fmt.Fprintf(sb, " %s ", v.Op)
		printExpr(sb, v.Right, true)
		clos(sb, paren)
	case *ArithExpr:
		open(sb, paren)
		printExpr(sb, v.Left, true)
		fmt.Fprintf(sb, " %s ", v.Op)
		printExpr(sb, v.Right, true)
		clos(sb, paren)
	case *UnaryExpr:
		sb.WriteString("-")
		printExpr(sb, v.Operand, true)
	case *LogicExpr:
		open(sb, paren)
		printExpr(sb, v.Left, true)
		if v.And {
			sb.WriteString(" and ")
		} else {
			sb.WriteString(" or ")
		}
		printExpr(sb, v.Right, true)
		clos(sb, paren)
	case *SeqExpr:
		sb.WriteString("(")
		for i, it := range v.Items {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, it, false)
		}
		sb.WriteString(")")
	case *NodeSetExpr:
		open(sb, paren)
		printExpr(sb, v.Left, true)
		fmt.Fprintf(sb, " %s ", v.Op)
		printExpr(sb, v.Right, true)
		clos(sb, paren)
	case *PathExpr:
		printPath(sb, v, paren)
	case *ElemConstructor:
		sb.WriteString("element ")
		if v.NameExpr != nil {
			sb.WriteString("{")
			printExpr(sb, v.NameExpr, false)
			sb.WriteString("}")
		} else {
			sb.WriteString(v.Name)
		}
		sb.WriteString(" {")
		for i, c := range v.Content {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, c, false)
		}
		sb.WriteString("}")
	case *AttrConstructor:
		sb.WriteString("attribute ")
		if v.NameExpr != nil {
			sb.WriteString("{")
			printExpr(sb, v.NameExpr, false)
			sb.WriteString("}")
		} else {
			sb.WriteString(v.Name)
		}
		sb.WriteString(" {")
		for i, c := range v.Value {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, c, false)
		}
		sb.WriteString("}")
	case *TextConstructor:
		sb.WriteString("text {")
		printExpr(sb, v.Content, false)
		sb.WriteString("}")
	case *DocConstructor:
		sb.WriteString("document {")
		printExpr(sb, v.Content, false)
		sb.WriteString("}")
	case *FunCall:
		sb.WriteString(v.Name)
		sb.WriteString("(")
		for i, a := range v.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, a, false)
		}
		sb.WriteString(")")
	case *ExecuteAt:
		open(sb, paren)
		sb.WriteString("execute at {")
		printExpr(sb, v.Target, false)
		sb.WriteString("} {")
		printExpr(sb, v.Call, false)
		sb.WriteString("}")
		clos(sb, paren)
	case *XRPCExpr:
		// The XCore presentation form of rule 27. The parser does not read
		// this back (it is produced by normalization/decomposition); shipped
		// messages carry a named declaration instead (xrpc's shipModule).
		open(sb, paren)
		sb.WriteString("execute at {")
		printExpr(sb, v.Target, false)
		sb.WriteString("} function (")
		for i, par := range v.Params {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(sb, "$%s := $%s", par.Name, par.Ref)
		}
		sb.WriteString(") {")
		printExpr(sb, v.Body, false)
		sb.WriteString("}")
		clos(sb, paren)
	default:
		fmt.Fprintf(sb, "(:unknown %T:)", e)
	}
}

func open(sb *strings.Builder, paren bool) {
	if paren {
		sb.WriteString("(")
	}
}

func clos(sb *strings.Builder, paren bool) {
	if paren {
		sb.WriteString(")")
	}
}

func printLiteral(sb *strings.Builder, a xdm.Atomic) {
	switch a.T {
	case xdm.TString, xdm.TUntyped:
		sb.WriteString(`"`)
		sb.WriteString(strings.ReplaceAll(a.S, `"`, `""`))
		sb.WriteString(`"`)
	case xdm.TBoolean:
		if a.B {
			sb.WriteString("fn:true()")
		} else {
			sb.WriteString("fn:false()")
		}
	default:
		sb.WriteString(a.ItemString())
	}
}

func printPath(sb *strings.Builder, pe *PathExpr, paren bool) {
	open(sb, paren)
	first := true
	if pe.Input != nil {
		if _, isRoot := pe.Input.(*RootExpr); isRoot {
			// leading "/" printed by the first separator below
		} else {
			printExpr(sb, pe.Input, true)
			first = false
		}
	} else {
		sb.WriteString(".")
		first = false
	}
	for _, st := range pe.Steps {
		if !st.Filter {
			if !first || pe.Input != nil {
				sb.WriteString("/")
			}
			first = false
			fmt.Fprintf(sb, "%s::%s", st.Axis, st.Test)
		}
		for _, pr := range st.Preds {
			sb.WriteString("[")
			printExpr(sb, pr, false)
			sb.WriteString("]")
		}
	}
	clos(sb, paren)
}
