package lowcomm3d

// The test-only surface check: every declaration under internal/ must be
// reachable from a program, a benchmark or an example, so that no code is
// kept alive by its own tests alone.

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowed lists the declarations under internal/ that no non-test
// code reaches but that tests in another package use. A name here that
// becomes reachable, or disappears, fails the test, so the list cannot go
// stale. Keep it at ten names or fewer.
var surfaceAllowed = map[string]string{
	"conv.BaselineReal":                    "the dense oracle of the root tests and bench_test.go",
	"cluster.NewChaosConn":                 "socket chaos for wire's chaos suite",
	"sample.Compressed.NearestReconstruct": "the root ablation's nearest-neighbour baseline",
	"serve.Engine.Scheduler":               "wire's fleet-dead test reports every device failed through it",
	"gpu.Device.Used":                      "the ledger the fleet, serve and massif tests audit for leaked reservations",
}

// surfaceMethodRoots are method names the standard library calls through
// an interface (error, fmt.Stringer, errors.Is/As/Unwrap, io, net.Conn,
// http.Handler, sort and container/heap).
var surfaceMethodRoots = []string{
	"Error", "String", "Unwrap", "Is", "As",
	"Read", "Write", "Close", "ServeHTTP",
	"Len", "Less", "Swap", "Push", "Pop",
	"LocalAddr", "RemoteAddr", "SetDeadline", "SetReadDeadline", "SetWriteDeadline",
}

type surfaceDecl struct {
	pkg   string // import path
	short string // package name as written in a report: last path element
	recv  string // receiver type, "" for a top-level name
	name  string
	file  string
	line  int
	lines int // including the doc comment
	main  bool

	uses map[types.Object]bool // package-level objects and methods it mentions

	reached bool
}

func (d *surfaceDecl) id() string {
	if d.recv != "" {
		return d.short + "." + d.recv + "." + d.name
	}
	return d.short + "." + d.name
}

// surfacePass type-checks every package of the module rooted at dir, from
// the non-test files go/build selects for this platform, and collects its
// declarations with the objects each one mentions.
type surfacePass struct {
	fset      *token.FileSet
	dir       string
	module    string
	std       types.Importer
	pkgs      map[string]*types.Package // module packages checked so far, by import path
	decls     []*surfaceDecl
	byObj     map[types.Object]*surfaceDecl
	ifaceMeth map[string]bool // method names declared in an interface
}

func newSurfacePass(t *testing.T, dir string) *surfacePass {
	t.Helper()
	p := &surfacePass{
		fset:      token.NewFileSet(),
		dir:       dir,
		module:    surfaceModule(t, dir),
		std:       importer.Default(),
		pkgs:      map[string]*types.Package{},
		byObj:     map[types.Object]*surfaceDecl{},
		ifaceMeth: map[string]bool{},
	}
	err := filepath.WalkDir(dir, func(fpath string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		name := e.Name()
		if fpath != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(dir, fpath)
		if err != nil {
			return err
		}
		_, err = p.Import(path.Join(p.module, filepath.ToSlash(rel)))
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func surfaceModule(t *testing.T, dir string) string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(m)
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}

// Import makes the pass a types.Importer: a package of the module is
// checked from source once, and its declarations collected; any other
// comes from the standard library's export data.
func (p *surfacePass) Import(ipath string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(ipath, p.module)
	if !ok || (rel != "" && rel[0] != '/') {
		return p.std.Import(ipath)
	}
	if pkg := p.pkgs[ipath]; pkg != nil {
		return pkg, nil
	}
	bp, err := build.Default.ImportDir(filepath.Join(p.dir, filepath.FromSlash(rel)), 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(bp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: p}).Check(ipath, p.fset, files, info)
	if err != nil {
		return nil, err
	}
	p.pkgs[ipath] = pkg
	for _, f := range files {
		p.addFile(f, pkg, info)
	}
	return pkg, nil
}

func (p *surfacePass) addFile(f *ast.File, pkg *types.Package, info *types.Info) {
	rel, _ := filepath.Rel(p.dir, p.fset.Position(f.Package).Filename)
	rel = filepath.ToSlash(rel)
	// span is the declaration's source, refs the node whose mentions it
	// makes.
	add := func(recv string, name *ast.Ident, doc *ast.CommentGroup, span, refs ast.Node) {
		start := span.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		d := &surfaceDecl{
			pkg: pkg.Path(), short: path.Base(pkg.Path()), recv: recv, name: name.Name,
			file: rel, line: p.fset.Position(name.Pos()).Line,
			lines: p.fset.Position(span.End()).Line - p.fset.Position(start).Line + 1,
			main:  pkg.Name() == "main",
			uses:  p.mentions(refs, info),
		}
		p.decls = append(p.decls, d)
		if obj := info.Defs[name]; obj != nil {
			p.byObj[obj] = d
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			recv := ""
			if decl.Recv != nil && len(decl.Recv.List) == 1 {
				recv = surfaceRecvName(decl.Recv.List[0].Type)
			}
			add(recv, decl.Name, decl.Doc, decl, decl)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				doc := decl.Doc
				var node ast.Node = spec
				if len(decl.Specs) == 1 {
					node = decl
				}
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Doc != nil {
						doc = spec.Doc
					}
					if it, ok := spec.Type.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							for _, n := range m.Names {
								p.ifaceMeth[n.Name] = true
							}
						}
					}
					add("", spec.Name, doc, node, node)
				case *ast.ValueSpec:
					if spec.Doc != nil {
						doc = spec.Doc
					}
					refs := node
					if decl.Tok == token.CONST {
						// An implicit repetition in a const group reuses the
						// type and expression of an earlier spec.
						refs = decl
					}
					for _, n := range spec.Names {
						add("", n, doc, node, refs)
					}
				}
			}
		}
	}
}

func surfaceRecvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// mentions returns the package-level objects and methods of the module
// that node uses, each as declared: a method of an instantiated generic
// type maps to its generic declaration.
func (p *surfacePass) mentions(node ast.Node, info *types.Info) map[types.Object]bool {
	uses := map[types.Object]bool{}
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), p.module) {
			return true
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		uses[obj] = true
		return true
	})
	return uses
}

// reach marks every declaration reachable from roots and from the
// declarations in extra.
func (p *surfacePass) reach(extra map[string]bool) {
	var work []*surfaceDecl
	mark := func(d *surfaceDecl) {
		if d != nil && !d.reached {
			d.reached = true
			work = append(work, d)
		}
	}
	methodRoot := map[string]bool{"init": true}
	for _, m := range surfaceMethodRoots {
		methodRoot[m] = true
	}
	for _, d := range p.decls {
		d.reached = false
	}
	for _, d := range p.decls {
		switch {
		case d.main, extra[d.id()],
			d.recv == "" && (d.name == "init" || d.name == "_"),
			d.recv != "" && (methodRoot[d.name] || p.ifaceMeth[d.name]):
			mark(d)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for obj := range d.uses {
			mark(p.byObj[obj])
		}
	}
}

// unreached returns the unreached declarations whose file lies under
// prefix, by file and line.
func (p *surfacePass) unreached(prefix string) []*surfaceDecl {
	var out []*surfaceDecl
	for _, d := range p.decls {
		if !d.reached && strings.HasPrefix(d.file, prefix) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}

// TestNoTestOnlySurface is a reachability pass over the non-test files
// that go/build selects for this platform, with every identifier resolved
// by go/types. Its roots are every declaration in a main package (cmd/,
// bench/, examples/), what package initialization runs (init functions
// and blank variables), and methods an interface can call: the standard
// library's in surfaceMethodRoots and every method named in an interface
// declared in the tree. A declaration is reached when a reached
// declaration uses it: a concrete method only through a call or value of
// that very method, so a same-named method of another type, or a field,
// keeps nothing alive. Every declaration under internal/ it does not reach
// must be deleted, moved into the _test.go files that use it, given a
// production caller, or allow-listed in surfaceAllowed. Run with -v (or
// make surface) for the report.
func TestNoTestOnlySurface(t *testing.T) {
	p := newSurfacePass(t, ".")
	internal := 0
	for _, d := range p.decls {
		if strings.HasPrefix(d.file, "internal/") {
			internal++
		}
	}
	if internal == 0 {
		t.Fatal("the pass found no declarations under internal/")
	}
	if len(surfaceAllowed) > 10 {
		t.Errorf("surfaceAllowed has %d names, want at most 10", len(surfaceAllowed))
	}

	p.reach(nil)
	unreached := p.unreached("internal/")
	allowed := map[string]bool{}
	for _, d := range unreached {
		if _, ok := surfaceAllowed[d.id()]; ok {
			allowed[d.id()] = true
		}
	}
	for id := range surfaceAllowed {
		if !allowed[id] {
			t.Errorf("%s is allow-listed but is reachable or no longer declared: drop it from surfaceAllowed", id)
		}
	}

	// A name reached only through an allow-listed one is covered by it.
	p.reach(allowed)
	var report strings.Builder
	total, bad := 0, 0
	for _, d := range unreached {
		outcome := "reached only from an allow-listed name"
		switch {
		case allowed[d.id()]:
			outcome = "allow-listed: " + surfaceAllowed[d.id()]
		case !d.reached:
			outcome = "UNREACHED: delete it, move it into the _test.go files that use it, or give it a caller"
			bad++
			total += d.lines
		}
		fmt.Fprintf(&report, "%s:%d\t%s\t%d lines\t%s\n", d.file, d.line, d.id(), d.lines, outcome)
	}
	t.Logf("%d declarations under internal/, %d reached by no program:\n%s", internal, len(unreached), report.String())
	if bad > 0 {
		t.Errorf("%d declarations under internal/ (%d lines) are reached by tests only; see the report above", bad, total)
	}
}

// TestSurfacePassResolvesTypes runs the pass on the small module in
// testdata/surface. Its one unreached declaration is a method whose name
// a live method of another type shares; a method only an interface calls
// is reached, and the arch_amd64.go / arch_other.go pair declares archName
// once, from whichever file go/build selects.
func TestSurfacePassResolvesTypes(t *testing.T) {
	p := newSurfacePass(t, filepath.Join("testdata", "surface"))
	p.reach(nil)
	var got []string
	for _, d := range p.unreached("") {
		got = append(got, d.id())
	}
	if want := []string{"lib.Dead.Get"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("unreached = %v, want %v", got, want)
	}
	arch := 0
	for _, d := range p.decls {
		if d.id() == "lib.archName" {
			arch++
		}
	}
	if arch != 1 {
		t.Errorf("lib.archName declared %d times, want 1", arch)
	}
}
