package distxq_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The reachability gate. Every function the module declares outside
// benchmark/ must link into a shipped binary — one of the main packages
// under the module root, or the benchmark — or match one of reachAllow's
// rules. The binaries are built without inlining, so a function the
// compiler would have folded into its only caller still shows up as a
// symbol; anything the linker's dead-code pass drops is code no binary
// runs.

// testkitPkg holds helpers shared by the packages' tests; no shipped
// binary may link it.
const testkitPkg = "distxq/internal/testkit"

// reachAllow lists the declarations that need not link, each with the
// reason it is exempt.
var reachAllow = []struct {
	why   string
	match func(pkg, recv, name string) bool
}{
	{
		why: "marker method: closes an interface (xq.Expr, xdm.Item) to its package and is never called",
		match: func(pkg, recv, name string) bool {
			return recv != "" && (name == "exprNode" || name == "isItem")
		},
	},
	{
		why: "test support: " + testkitPkg + " is imported only by _test.go files",
		match: func(pkg, recv, name string) bool {
			return pkg == testkitPkg
		},
	},
}

func TestEveryFunctionLinks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every shipped binary")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	decls, mains := reachDecls(t, ".")
	if len(mains) == 0 {
		t.Fatal("found no main package")
	}

	bin := t.TempDir()
	env := append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off", "GOFLAGS=-buildvcs=false")
	goCmd := func(dir string, args ...string) []byte {
		cmd := exec.Command(goTool, args...)
		cmd.Dir, cmd.Env = dir, env
		out, err := cmd.Output()
		if err != nil {
			var stderr []byte
			if ee, ok := err.(*exec.ExitError); ok {
				stderr = ee.Stderr
			}
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr)
		}
		return out
	}
	// binaries maps each built file to the import path of its main
	// package, whose symbols the linker names "main.".
	binaries := map[string]string{}
	var pkgs []string
	for _, p := range mains {
		pkgs = append(pkgs, "."+strings.TrimPrefix(p, "distxq"))
		binaries[filepath.Join(bin, path.Base(p))] = p
	}
	goCmd(".", append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, pkgs...)...)
	bench := filepath.Join(bin, "benchmark.bin")
	goCmd("benchmark", "build", "-gcflags=all=-l", "-o", bench, ".")
	binaries[bench] = "distxq/benchmark"

	// A main that imports testkit but calls nothing in it links no testkit
	// symbol, so the import graph is checked as well as the symbols.
	deps := string(goCmd(".", append([]string{"list", "-deps", "-f", "{{.ImportPath}}"}, pkgs...)...)) +
		string(goCmd("benchmark", "list", "-deps", "-f", "{{.ImportPath}}", "."))
	for _, dep := range strings.Fields(deps) {
		if dep == testkitPkg {
			t.Errorf("a shipped binary imports %s; test support must stay out of shipped binaries", testkitPkg)
			break
		}
	}

	linked := map[string]bool{}
	for file, mainPkg := range binaries {
		sc := bufio.NewScanner(bytes.NewReader(goCmd(".", "tool", "nm", file)))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			kind, name, ok := nmLine(sc.Text())
			if !ok {
				continue
			}
			if strings.HasPrefix(name, testkitPkg+".") {
				t.Errorf("%s links %s; test support must stay out of shipped binaries", mainPkg, name)
			}
			if kind != "T" && kind != "t" {
				continue
			}
			sym := reachSymbol(name)
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				sym = mainPkg + "." + rest
			}
			linked[sym] = true
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	allowed := make([][]string, len(reachAllow))
	var missing []string
	for _, d := range decls {
		if linked[d.key()] {
			continue
		}
		exempt := false
		for i, a := range reachAllow {
			if a.match(d.pkg, d.recv, d.name) {
				allowed[i] = append(allowed[i], d.key())
				exempt = true
				break
			}
		}
		if !exempt {
			missing = append(missing, d.pos+": "+d.key())
		}
	}
	for i, a := range reachAllow {
		t.Logf("allowlist: %d functions — %s: %s", len(allowed[i]), a.why, strings.Join(allowed[i], " "))
	}
	t.Logf("%d functions declared, %d unlinked outside the allowlist", len(decls), len(missing))
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("no shipped binary links %s; call it from one, move it into a _test.go file or %s, or delete it", m, testkitPkg)
	}
}

// reachDecl is one non-test function declaration.
type reachDecl struct {
	pkg, recv, name string
	pos             string
}

// key spells the declaration the way reachSymbol spells a linked symbol.
func (d reachDecl) key() string {
	if d.recv == "" {
		return d.pkg + "." + d.name
	}
	return d.pkg + "." + d.recv + "." + d.name
}

// reachDecls lists every function declared in non-test files under root,
// outside benchmark/ (its own module) and testdata, and the import paths
// of the main packages among them. init functions are left out: one runs
// whenever its package links, and its symbol carries a sequence number,
// not the declaration's name.
func reachDecls(t *testing.T, root string) (decls []reachDecl, mains []string) {
	t.Helper()
	fset := token.NewFileSet()
	isMain := map[string]bool{}
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			n := e.Name()
			if p != root && (n == "benchmark" || n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(p))
		pkg := "distxq"
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		if f.Name.Name == "main" && !isMain[pkg] {
			isMain[pkg] = true
			mains = append(mains, pkg)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			decls = append(decls, reachDecl{
				pkg:  pkg,
				recv: recvName(fd),
				name: fd.Name.Name,
				pos:  fset.Position(fd.Pos()).String(),
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(mains)
	return decls, mains
}

// recvName is the bare type name of fd's receiver: no pointer, no type
// parameters. It is "" for a plain function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	x := fd.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// nmLine splits one line of go tool nm output, "address kind name", into
// its kind and name. A name may itself hold spaces (a go.shape type
// argument spelling out an interface or a struct).
func nmLine(line string) (kind, name string, ok bool) {
	_, rest, ok1 := strings.Cut(strings.TrimSpace(line), " ")
	kind, name, ok2 := strings.Cut(strings.TrimSpace(rest), " ")
	return kind, strings.TrimSpace(name), ok1 && ok2
}

// closureSuffix matches what the compiler appends to the function a
// closure, go or defer statement, or method value is cut from.
var closureSuffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap)?\d+|-fm)$`)

// reachSymbol maps a linked symbol onto the declaration it was compiled
// from: type arguments (including go.shape instantiations) and the
// parentheses of a pointer receiver are dropped, and so are the suffixes
// of closures and wrappers, so "pkg.(*T[go.shape.int]).M.func1" reads
// "pkg.T.M".
func reachSymbol(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth > 0:
		default:
			b.WriteRune(r)
		}
	}
	s := strings.NewReplacer("(*", "", ")", "").Replace(b.String())
	for {
		t := closureSuffix.ReplaceAllString(s, "")
		if t == s {
			return s
		}
		s = t
	}
}

func TestReachSymbol(t *testing.T) {
	for _, c := range []struct{ line, kind, want string }{
		{"  4a1b20 T distxq/internal/xdm.(*Node).StringValue", "T", "distxq/internal/xdm.Node.StringValue"},
		{"  4a1c40 T distxq/internal/xdm.Atomic.String", "T", "distxq/internal/xdm.Atomic.String"},
		{"  4a1c80 t distxq/internal/eval.lookup", "t", "distxq/internal/eval.lookup"},
		{"  4b0000 T distxq/internal/eval.(*freeList[go.shape.*uint8]).take", "T", "distxq/internal/eval.freeList.take"},
		{"  4b0100 T distxq/internal/eval.(*freeList[go.shape.interface { Len() int; Less(int, int) bool }]).give",
			"T", "distxq/internal/eval.freeList.give"},
		{"  4b0200 T distxq/internal/eval.reserve[go.shape.struct { A []uint8; B map[string]int }]", "T", "distxq/internal/eval.reserve"},
		{"  4b0300 T distxq/internal/eval.(*Engine).Query.func1", "T", "distxq/internal/eval.Engine.Query"},
		{"  4b0400 T distxq/internal/xrpc.(*Client).scatter.func2.1", "T", "distxq/internal/xrpc.Client.scatter"},
		{"  4b0500 T distxq/internal/xrpc.(*Client).scatter.gowrap1", "T", "distxq/internal/xrpc.Client.scatter"},
		{"  4b0600 T distxq/internal/peer.(*Network).Close.deferwrap1", "T", "distxq/internal/peer.Network.Close"},
		{"  4b0700 T distxq/internal/service.(*Service).handle-fm", "T", "distxq/internal/service.Service.handle"},
		{"  4b0800 T main.main", "T", "main.main"},
		{"  4b0900 T distxq/internal/xq.init.0", "T", "distxq/internal/xq.init"},
	} {
		kind, name, ok := nmLine(c.line)
		if !ok || kind != c.kind {
			t.Errorf("nmLine(%q) = %q, %q, %v", c.line, kind, name, ok)
			continue
		}
		if got := reachSymbol(name); got != c.want {
			t.Errorf("reachSymbol(%q) = %q, want %q", name, got, c.want)
		}
	}
}
