package authorityflow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
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

// testOracles are the exported internal functions that no production
// file calls and that stay anyway, each for the role it plays in tests.
// TestInternalFunctionsHaveCallers fails on an entry whose function is
// gone or has gained a production caller, so the list cannot go stale.
var testOracles = map[string]string{
	"authorityflow/internal/rank.NormalizeDist": "builds the kernel tests' jump vectors",
	"authorityflow/internal/eval.KendallTau":    "rank agreement of the audit evidence rows",
	"authorityflow/internal/storage.ExportTSV":  "the round-trip and fuzz oracle for ImportTSV",
	"authorityflow/internal/ir.IsStopword":      "pins the tokenizer's stopword list",
}

// TestInternalFunctionsHaveCallers is the caller rule made module-wide:
// every exported package-level function declared in a non-test file
// under internal/ is referenced from a non-test file of the module (the
// commands and cmd/afqbench count) — as pkg.Name from another package or
// as Name inside its own — or is one of testOracles. A function only the
// tests reach is deleted. Methods are out of scope: matching them by
// name alone cannot tell which type's method a call reaches.
func TestInternalFunctionsHaveCallers(t *testing.T) {
	type file struct {
		pkg string // import path of the file's package
		ast *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && path != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{pkg: filepath.ToSlash(filepath.Join("authorityflow", filepath.Dir(path))), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}   // "import/path.Name" of every exported internal function
	referenced := map[string]bool{} // "import/path.Name" of every reference outside a declaration's name
	for _, f := range files {
		imports := map[string]string{}
		for _, imp := range f.ast.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = path
		}
		skip := map[*ast.Ident]bool{}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			skip[fn.Name] = true
			if fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(f.pkg, "authorityflow/internal/") {
				declared[f.pkg+"."+fn.Name.Name] = true
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if path, ok := imports[x.Name]; ok {
						referenced[path+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !skip[n] {
					referenced[f.pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}

	if len(declared) == 0 {
		t.Fatal("found no exported function under internal/")
	}
	var uncalled []string
	for name := range declared {
		if !referenced[name] && testOracles[name] == "" {
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("%s has no caller outside the tests: give it one, delete it, or name its test role in testOracles", strings.TrimPrefix(name, "authorityflow/internal/"))
	}
	for name, why := range testOracles {
		switch {
		case !declared[name]:
			t.Errorf("testOracles names %s (%s), which no longer exists: drop the entry", name, why)
		case referenced[name]:
			t.Errorf("testOracles names %s (%s), which now has a production caller: drop the entry", name, why)
		}
	}
}
