package lowcomm3d

// The test-only surface check: every declaration under internal/ must be
// reachable from a program, a benchmark or an example, so that no code is
// kept alive by its own tests alone.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
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
	"serve.Engine.TenantSnapshots":         "telemetry's scrape test reads the per-tenant counters through it",
	"sample.Compressed.NearestReconstruct": "the root ablation's nearest-neighbour baseline",
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

	names     map[string]bool    // unqualified identifiers it mentions
	qualified map[[2]string]bool // (import path, name) pairs it mentions

	reached bool
}

func (d *surfaceDecl) id() string {
	if d.recv != "" {
		return d.short + "." + d.recv + "." + d.name
	}
	return d.short + "." + d.name
}

// surfacePass parses every non-test .go file of the module rooted at dir
// and collects its declarations with the names each one mentions.
type surfacePass struct {
	fset      *token.FileSet
	decls     []*surfaceDecl
	topLevel  map[string]map[string][]*surfaceDecl // import path → name
	methods   map[string][]*surfaceDecl            // method name → every method of that name
	ifaceMeth map[string]bool                      // method names declared in an interface
}

func newSurfacePass(t *testing.T, dir string) *surfacePass {
	t.Helper()
	module := surfaceModule(t, dir)
	p := &surfacePass{
		fset:      token.NewFileSet(),
		topLevel:  map[string]map[string][]*surfaceDecl{},
		methods:   map[string][]*surfaceDecl{},
		ifaceMeth: map[string]bool{},
	}
	err := filepath.WalkDir(dir, func(fpath string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if fpath != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(dir, fpath)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(p.fset, fpath, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(rel)))
		p.addFile(f, filepath.ToSlash(rel), pkg)
		return nil
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

func (p *surfacePass) addFile(f *ast.File, rel, pkg string) {
	imports := map[string]string{} // name in this file → import path
	for _, im := range f.Imports {
		ipath := strings.Trim(im.Path.Value, `"`)
		name := path.Base(ipath)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = ipath
	}
	isMain := f.Name.Name == "main"
	// span is the declaration's source, refs the node whose mentions it
	// makes.
	add := func(recv string, name *ast.Ident, doc *ast.CommentGroup, span, refs ast.Node) {
		start := span.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		d := &surfaceDecl{
			pkg: pkg, short: path.Base(pkg), recv: recv, name: name.Name,
			file: rel, line: p.fset.Position(name.Pos()).Line,
			lines: p.fset.Position(span.End()).Line - p.fset.Position(start).Line + 1,
			main:  isMain,
		}
		d.names, d.qualified = surfaceMentions(refs, name, imports)
		p.decls = append(p.decls, d)
		if recv != "" {
			p.methods[d.name] = append(p.methods[d.name], d)
			return
		}
		if p.topLevel[pkg] == nil {
			p.topLevel[pkg] = map[string][]*surfaceDecl{}
		}
		p.topLevel[pkg][d.name] = append(p.topLevel[pkg][d.name], d)
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

// surfaceMentions returns the identifiers node mentions, apart from self
// and the names of fields and parameters it declares. A selector on an
// imported package's name is a qualified mention.
func surfaceMentions(node ast.Node, self *ast.Ident, imports map[string]string) (map[string]bool, map[[2]string]bool) {
	names, qualified := map[string]bool{}, map[[2]string]bool{}
	declared := map[*ast.Ident]bool{self: true}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			for _, id := range n.Names {
				declared[id] = true
			}
		case *ast.SelectorExpr:
			// The parser sets Obj on an identifier it resolved to a
			// declaration in the file, which shadows an import name.
			if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
				if ipath, ok := imports[x.Name]; ok {
					qualified[[2]string{ipath, n.Sel.Name}] = true
					return false
				}
			}
		case *ast.Ident:
			if !declared[n] {
				names[n.Name] = true
			}
		}
		return true
	})
	return names, qualified
}

// reach marks every declaration reachable from roots and from the
// declarations in extra.
func (p *surfacePass) reach(extra map[string]bool) {
	var work []*surfaceDecl
	mark := func(ds []*surfaceDecl) {
		for _, d := range ds {
			if !d.reached {
				d.reached = true
				work = append(work, d)
			}
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
			mark([]*surfaceDecl{d})
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for n := range d.names {
			mark(p.topLevel[d.pkg][n])
			mark(p.methods[n])
		}
		for q := range d.qualified {
			mark(p.topLevel[q[0]][q[1]])
		}
	}
}

// internalUnreached returns the unreached declarations under internal/,
// by file and line.
func (p *surfacePass) internalUnreached() []*surfaceDecl {
	var out []*surfaceDecl
	for _, d := range p.decls {
		if !d.reached && strings.HasPrefix(d.file, "internal/") {
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

// TestNoTestOnlySurface is a name-based reachability pass over the non-test
// files. Its roots are every declaration in a main package (cmd/, bench/,
// examples/), what package initialization runs (init functions and blank
// variables), and methods an interface can call: the
// standard library's in surfaceMethodRoots and every method named in an
// interface declared in the tree. A declaration is reached when a reached
// declaration mentions its name, qualified by its package where it is
// top-level in another. Names are matched without types, so the pass can
// only miss dead code, never flag live code. Every declaration under
// internal/ it does not reach must be deleted, moved into the _test.go
// files that use it, given a production caller, or allow-listed in
// surfaceAllowed. Run with -v for the report.
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
	unreached := p.internalUnreached()
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
