package authorityflow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestFacadeFunctionsHaveCallers is the facade's rule, executable: every
// exported function of authorityflow.go is called by a command under
// cmd/ or by a compiled example in example_test.go. A function only the
// tests reach is deleted, not kept for completeness — the servers and
// the benchmark import internal/ directly, so nothing else can need it.
func TestFacadeFunctionsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "authorityflow.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}

	callers := []string{"example_test.go"}
	err = filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			callers = append(callers, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	called := map[string]bool{}
	for _, path := range callers {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "authorityflow" {
						called[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	}

	funcs := 0
	for _, d := range facade.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !fn.Name.IsExported() {
			continue
		}
		funcs++
		if !called[fn.Name.Name] {
			t.Errorf("authorityflow.%s has no call site in cmd/ or example_test.go: give it one or delete it", fn.Name.Name)
		}
	}
	if funcs == 0 {
		t.Fatal("found no exported function in authorityflow.go")
	}
}
