package tbnet

import (
	"errors"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tbnet/internal/autoscale"
	"tbnet/internal/fleet"
	"tbnet/internal/httpd"
	"tbnet/internal/serve"
)

// facadeAllowlist names the exported functions kept without a caller outside
// this package, each with the reason it stays.
var facadeAllowlist = map[string]string{
	"WithHyperparams": "TestPipelineMatchesRecordedArtifact spells the micro learning rate through it",
}

// TestFacadeSurface holds the package to what its callers use: every
// exported function, option and method is reached from examples/, cmd/,
// bench/ or internal/, or is allowlisted with a reason — never both. A
// function is reached by a tbnet.Name selector; a method T.M by any .M
// selector in a file that imports this package.
func TestFacadeSurface(t *testing.T) {
	funcs, sels := map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range []string{"examples", "cmd", "bench", "internal"} {
		err := filepath.WalkDir(dir, func(path string, _ fs.DirEntry, err error) error {
			if err != nil || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil || !importsFacade(f) {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					sels[sel.Sel.Name] = true
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "tbnet" {
						funcs[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, file := range pkgs["tbnet"].Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			name, used := fd.Name.Name, funcs[fd.Name.Name]
			if fd.Recv != nil {
				name, used = types.ExprString(fd.Recv.List[0].Type)+"."+name, sels[name]
			}
			_, allowed := facadeAllowlist[name]
			seen[name] = true
			if used == allowed {
				t.Errorf("%s: called outside the package %v, allowlisted %v; want exactly one", name, used, allowed)
			}
		}
	}
	for name := range facadeAllowlist {
		if !seen[name] {
			t.Errorf("allowlisted %s is not an exported function", name)
		}
	}
}

// configSurface is every field of the serving stack's four Config types, in
// declaration order. Each is a knob tests and benchmarks must cover, so a
// field with one value in use is a constant instead; TestConfigSurface fails
// for a field added or removed without this list changing in the same diff.
var configSurface = map[string][]string{
	"serve.Config": {"Workers", "MaxBatch", "MaxDelay", "PaceScale", "Observer", "Tracer", "Tap"},
	"fleet.Config": {"Nodes", "Models", "Policy", "Deadline", "MaxInFlight", "MaxBatch", "MaxDelay",
		"PaceScale", "Tracer", "Tap"},
	"autoscale.Config": {"Interval", "Min", "Max", "Logger"},
	"httpd.Config": {"Fleet", "Registry", "APIKeys", "RateLimit", "IdleTTL", "RetryAfter", "Logger",
		"Tracer", "SlowThreshold", "EnablePprof", "Tap"},
}

// TestConfigSurface holds the serving Configs to configSurface: a new
// serving knob is a deliberate, reviewed change to that list.
func TestConfigSurface(t *testing.T) {
	for _, cfg := range []any{serve.Config{}, fleet.Config{}, autoscale.Config{}, httpd.Config{}} {
		typ := reflect.TypeOf(cfg)
		var fields []string
		for i := 0; i < typ.NumField(); i++ {
			fields = append(fields, typ.Field(i).Name)
		}
		if want := configSurface[typ.String()]; !slices.Equal(fields, want) {
			t.Errorf("%s fields %v, configSurface lists %v", typ, fields, want)
		}
	}
}

func importsFacade(f *ast.File) bool {
	for _, imp := range f.Imports {
		if imp.Path.Value == `"tbnet"` && imp.Name == nil {
			return true
		}
	}
	return false
}

// reachAllowlist names the declarations under internal/ that the program
// cannot reach but that stay, each with the assertion that needs it. A key
// is a package path below internal/ (the whole package) or a declaration as
// TestInternalReachable prints it. What an entry calls stays with it.
var reachAllowlist = map[string]string{
	"cliconf/cliconftest":   "a helper package for tests: the cmd/ and cliconf tests build their flag sets through it",
	"serial.SaveModel":      "internal/zoo/testdata/stages.golden pins sha256 digests over its bytes (TestStageCharacterization)",
	"tee.SecureMemory.Used": "serve's swap_test.go and resize_test.go assert that the secure-memory reservation returns to its start",
}

// TestInternalReachable holds internal/ to what the program runs: every
// declaration in a non-test file there is reached, on amd64 or arm64, from a
// main package (cmd/, examples/, bench/), the tbnet API, an init func or a
// package-level var initializer — or it is allowlisted with a reason, never
// both.
func TestInternalReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source")
	}
	dead, stale, err := unreachedDecls(".", "tbnet", reachAllowlist, "amd64", "arm64")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dead {
		t.Errorf("%s: no binary, example, bench or tbnet API reaches it", name)
	}
	for _, key := range stale {
		t.Errorf("allowlisted %s is reached or gone; drop the entry", key)
	}
}

// TestReachabilityGateFixture runs the gate over a planted module: an export
// nothing calls is reported; a method reached only through an anonymous
// interface, a helper only an !amd64 file calls, and what an allowlisted
// declaration calls are not; an entry for a reached declaration is stale.
func TestReachabilityGateFixture(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module fx\n",
		"cmd/fx/main.go": `package main

import "fx/internal/a"

func main() {
	var d interface{ Describe() string } = a.New()
	_ = d.Describe()
	a.Platform()
}
`,
		"internal/a/a.go": `package a

type T struct{}

func New() T { return T{} }

func (T) Describe() string { return "t" }

func (T) Unused() {}

func Planted() {}

func Kept() { keptHelper() }

func keptHelper() {}

func helper() {}
`,
		"internal/a/a_amd64.go": "package a\n\nfunc Platform() {}\n",
		"internal/a/a_other.go": "//go:build !amd64\n\npackage a\n\nfunc Platform() { helper() }\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := map[string]string{"a.Kept": "fixture", "a.New": "fixture"}
	dead, stale, err := unreachedDecls(dir, "fx", allow, "amd64", "arm64")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.Planted", "a.T.Unused"}; !slices.Equal(dead, want) {
		t.Errorf("unreached %v, want %v", dead, want)
	}
	if want := []string{"a.New"}; !slices.Equal(stale, want) {
		t.Errorf("stale allowlist entries %v, want %v", stale, want)
	}
	dead, _, err = unreachedDecls(dir, "fx", allow, "amd64")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(dead, "a.helper") {
		t.Errorf("amd64 alone reaches a.helper (unreached %v); only the arm64 pass should", dead)
	}
}

// unreachedDecls type-checks the module at root (module path mod, nested
// modules below it included) once per GOARCH on linux. It returns, sorted,
// the declarations in non-test files under root/internal that no pass
// reaches from the program's roots or from an allow entry, and the allow
// keys whose declarations the program reaches without them. A method whose
// receiver type is unreached is listed only as its type.
func unreachedDecls(root, mod string, allow map[string]string, goarches ...string) (dead, stale []string, err error) {
	root, err = filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	declared, reached, kept := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, goarch := range goarches {
		ctxt := build.Default
		ctxt.GOOS, ctxt.GOARCH, ctxt.CgoEnabled = "linux", goarch, false
		l := &reachLoader{ctxt: ctxt, fset: token.NewFileSet(), root: root, mod: mod, pkgs: map[string]*types.Package{}}
		if err := l.loadAll(); err != nil {
			return nil, nil, err
		}
		l.reach(allow, declared, reached, kept)
	}
	needed := map[string]bool{}
	for name := range declared {
		if reached[name] {
			continue
		}
		if key := allowKey(allow, name); key != "" {
			needed[key] = true
		}
		recv := name[:strings.LastIndexByte(name, '.')] // a method's type, else its package
		if kept[name] || declared[recv] && !reached[recv] && !kept[recv] {
			continue
		}
		dead = append(dead, name)
	}
	for key := range allow {
		if !needed[key] {
			stale = append(stale, key)
		}
	}
	slices.Sort(dead)
	slices.Sort(stale)
	return dead, stale, nil
}

// allowKey is the allow entry that covers name, or "".
func allowKey(allow map[string]string, name string) string {
	if _, ok := allow[name]; ok {
		return name
	}
	pkg := name[:strings.LastIndexByte(name, '/')+1]
	pkg += strings.SplitN(name[len(pkg):], ".", 2)[0]
	if _, ok := allow[pkg]; ok {
		return pkg
	}
	return ""
}

// reachLoader type-checks the module's packages with full syntax and types,
// and the standard library from source without function bodies.
type reachLoader struct {
	ctxt      build.Context
	fset      *token.FileSet
	root, mod string
	pkgs      map[string]*types.Package // by directory
	own       []reachPkg
}

type reachPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (l *reachLoader) loadAll() error {
	return filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(l.root, path)
		_, err = l.Import(strings.TrimSuffix(l.mod+"/"+filepath.ToSlash(rel), "/."))
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
}

func (l *reachLoader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *reachLoader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	var bp *build.Package
	var err error
	rel, own := strings.CutPrefix(path, l.mod)
	if own = own && (rel == "" || rel[0] == '/'); own {
		bp, err = l.ctxt.ImportDir(filepath.Join(l.root, rel), 0)
	} else {
		bp, err = l.ctxt.Import(path, srcDir, 0)
	}
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[bp.Dir]; ok {
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", l.ctxt.GOARCH)}
	var info *types.Info
	if own {
		info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	} else {
		path = bp.ImportPath
		conf.IgnoreFuncBodies, conf.Error = true, func(error) {}
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if own && err != nil {
		return nil, err
	}
	l.pkgs[bp.Dir] = pkg
	if own {
		l.own = append(l.own, reachPkg{pkg, files, info})
	}
	return pkg, nil
}

// dynamicMethods are the methods the standard library asks for by a type
// assertion inside a function body, which the loader does not check.
var dynamicMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true, "Timeout": true, "Temporary": true}

// reach adds this pass's declarations under internal/ to declared, those the
// program's roots reach to reached, and those only allow entries reach to
// kept.
func (l *reachLoader) reach(allow map[string]string, declared, reached, kept map[string]bool) {
	type site struct {
		node ast.Node
		info *types.Info
	}
	decls := map[types.Object]site{}
	var roots []site
	seen := map[types.Object]bool{}
	var queue []types.Object
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj != nil && !seen[obj] {
			seen[obj] = true
			queue = append(queue, obj)
		}
	}
	internal := func(obj types.Object) bool {
		return obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path(), l.mod+"/internal/")
	}

	// Roots: main packages, the facade's exported API, and the init funcs and
	// package-level var initializers of every package they link.
	linked := map[*types.Package]bool{}
	var link func(*types.Package)
	link = func(p *types.Package) {
		if !linked[p] {
			linked[p] = true
			for _, q := range p.Imports() {
				link(q)
			}
		}
	}
	for _, p := range l.own {
		if p.pkg.Name() == "main" || p.pkg.Path() == l.mod {
			link(p.pkg)
		}
	}
	var internalObjs []types.Object
	for _, p := range l.own {
		facade, main := p.pkg.Path() == l.mod, p.pkg.Name() == "main"
		for _, f := range p.files {
			for _, d := range f.Decls {
				var specs []ast.Spec
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					decls[obj] = site{d, p.info}
					name := d.Name.Name
					if d.Recv == nil && (name == "init" && linked[p.pkg] || name == "main" && main) || facade && d.Name.IsExported() {
						mark(obj)
					}
					if internal(obj) && (d.Recv != nil || name != "init") {
						internalObjs = append(internalObjs, obj)
					}
				case *ast.GenDecl:
					specs = d.Specs
					if d.Tok == token.VAR && linked[p.pkg] {
						for _, s := range specs {
							roots = append(roots, site{s, p.info})
						}
					}
				}
				for _, spec := range specs {
					names := []*ast.Ident{}
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name)
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						obj := p.info.Defs[id]
						if obj == nil {
							continue
						}
						decls[obj] = site{spec, p.info}
						if facade && id.IsExported() {
							mark(obj)
						}
						if internal(obj) {
							internalObjs = append(internalObjs, obj)
						}
					}
				}
			}
		}
	}

	// A reached type's method is also reached when the type satisfies an
	// interface that names it, since a call through the interface is no Uses
	// edge: an interface the module writes, one the standard library
	// exports, or a method the standard library asks for dynamically.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, p := range l.own {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					ifaces = append(ifaces, p.info.TypeOf(it).Underlying().(*types.Interface))
				}
				return true
			})
		}
	}
	for _, p := range l.pkgs {
		if p == types.Unsafe || p.Path() == l.mod || strings.HasPrefix(p.Path(), l.mod+"/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			if obj := p.Scope().Lookup(name); obj.Exported() && types.IsInterface(obj.Type()) {
				ifaces = append(ifaces, obj.Type().Underlying().(*types.Interface))
			}
		}
	}
	visit := func(s site) {
		ast.Inspect(s.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && s.info.Uses[id] != nil {
				mark(s.info.Uses[id])
			}
			return true
		})
	}
	satisfied := map[types.Object]bool{}
	drain := func() {
		for len(queue) > 0 {
			for len(queue) > 0 {
				obj := queue[0]
				queue = queue[1:]
				if s, ok := decls[obj]; ok {
					visit(s)
				}
				if n, ok := obj.Type().(*types.Named); ok {
					mark(n.Obj())
				}
			}
			for obj := range seen {
				named, ok := obj.Type().(*types.Named)
				if _, isType := obj.(*types.TypeName); !isType || !ok || satisfied[obj] || named.Obj() != obj ||
					decls[obj].node == nil || types.IsInterface(named) || named.TypeParams().Len() > 0 {
					continue
				}
				satisfied[obj] = true
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); dynamicMethods[m.Name()] {
						mark(m)
					}
				}
				ptr := types.NewPointer(named)
				for _, iface := range ifaces {
					if iface.NumMethods() == 0 || !types.Implements(ptr, iface) {
						continue
					}
					for i := 0; i < iface.NumMethods(); i++ {
						m := iface.Method(i)
						if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
							mark(obj)
						}
					}
				}
			}
		}
	}
	for _, s := range roots {
		visit(s)
	}
	drain()
	for _, obj := range internalObjs {
		name := reachName(l.mod, obj)
		declared[name] = true
		if seen[obj] {
			reached[name] = true
		} else if allowKey(allow, name) != "" {
			mark(obj)
		}
	}
	drain()
	for _, obj := range internalObjs {
		if name := reachName(l.mod, obj); seen[obj] && !reached[name] {
			kept[name] = true
		}
	}
}

// reachName is obj as the gate prints it: its package path below internal/,
// then the receiver type for a method, then the name.
func reachName(mod string, obj types.Object) string {
	name := obj.Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if n, ok := recv.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	return strings.TrimPrefix(obj.Pkg().Path(), mod+"/internal/") + "." + name
}
