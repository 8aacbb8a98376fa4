package tbnet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
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
