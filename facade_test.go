package authorityflow_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
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

// Kinds of name the caller rule examines.
const (
	kindFunction = "function"
	kindMethod   = "method"
	kindConstant = "constant"
	kindVariable = "variable"
	kindUnset    = "unset option field" // a field of an …Options/…Config struct
	kindUnread   = "unread field"       // a field of a struct without json tags
)

// oracle is a testOracles entry: the kind under which the caller rule
// flags the name, and the role the name plays in tests.
type oracle struct{ kind, role string }

// testOracles are the exported names under internal/ that the caller
// rule flags and that stay anyway, each for the role it plays in tests.
// TestInternalNamesHaveCallers fails on an entry whose name is gone or
// is no longer flagged as its kind, so the list cannot go stale.
var testOracles = map[string]oracle{
	"authorityflow/internal/rank.NormalizeDist":  {kindFunction, "builds the kernel tests' jump vectors"},
	"authorityflow/internal/eval.KendallTau":     {kindFunction, "rank agreement of the audit evidence rows"},
	"authorityflow/internal/storage.ExportTSV":   {kindFunction, "the round-trip and fuzz oracle for ImportTSV"},
	"authorityflow/internal/ir.IsStopword":       {kindFunction, "pins the tokenizer's stopword list"},
	"authorityflow/internal/ir.TokenizeFiltered": {kindFunction, "the oracle the forward table's conformance row holds every node's row to"},

	"authorityflow/internal/rank.ZeroIters":     {kindConstant, "the observer test's run of no sweeps"},
	"authorityflow/internal/rank.ZeroThreshold": {kindConstant, "turns off early stopping so cancellation, cache and column tests run a fixed sweep count"},

	"authorityflow/internal/cache.CachedEngine.Engine":          {kindMethod, "conformance and the root benchmarks reach the engine behind a cache they are handed"},
	"authorityflow/internal/core.Engine.GlobalRank":             {kindMethod, "tests solve the one-time warm-start vector up front so their solve counts see only query solves"},
	"authorityflow/internal/core.Pinned.EvictDecodedTopologies": {kindMethod, "forces the derived-topology path in the topology tests and conformance rows"},
	"authorityflow/internal/core.Subgraph.H":                    {kindMethod, "h(v) by node id for the Eq. 10 tests and conformance's accessor rows"},
	"authorityflow/internal/core.Subgraph.OutFlow":              {kindMethod, "O(v) by node id for the Eq. 6b tests and conformance's accessor rows"},
	"authorityflow/internal/graph.Graph.Fingerprint":            {kindMethod, "a graph's identity across the snapshot and reversal round trips"},
	"authorityflow/internal/graph.Graph.OutDeg":                 {kindMethod, "the Eq. 1 reference for the CSR's inverse degrees"},
	"authorityflow/internal/ir.Index.Score":                     {kindMethod, "the Eq. 2 reference BaseSet's scores are checked against"},
	"authorityflow/internal/ir.Query.Len":                       {kindMethod, "conformance and the batch tests pick their multi-term queries by it"},
	"authorityflow/internal/ir.Query.SetWeight":                 {kindMethod, "builds the weighted queries of the linearity and assembly rows"},
	"authorityflow/internal/profile.Basis.MixtureJump":          {kindMethod, "the independent blend served personalized answers are checked against"},
	"authorityflow/internal/profile.Basis.Terms":                {kindMethod, "the profile load harness draws its archetypes' mixtures from the panel"},
	"authorityflow/internal/server.Client.ProfileUpdate":        {kindMethod, "the profile load harness drives a real server through it"},
	"authorityflow/internal/server.Client.Query":                {kindMethod, "the profile load harness drives a real server through it"},
	"authorityflow/internal/server.Client.QueryProfile":         {kindMethod, "the profile load harness drives a real server through it"},
	"authorityflow/internal/server.Server.Profiles":             {kindMethod, "tests seed profiles and read hit counters on the server's manager"},

	"authorityflow/internal/core.ExplainOptions.MaxIters":     {kindUnset, "raised with Threshold by the exact-threshold explain tests and conformance cases"},
	"authorityflow/internal/core.ExplainOptions.Threshold":    {kindUnset, "the paper-example exactness tests tighten Eq. 10's threshold"},
	"authorityflow/internal/core.ReformulateOptions.TopTerms": {kindUnset, "Example 2's expansion test widens Z to see the neighbour terms"},
	"authorityflow/internal/router.Options.HTTPClient":        {kindUnset, "the fault-injecting transport of the router tests (ROADMAP item 9)"},

	"authorityflow/internal/cache.Answer.Query":            {kindUnread, "conformance's assembled rows name the query an answer came from"},
	"authorityflow/internal/cache.Options.PrewarmTerms":    {kindUnread, "bound by cmd/afqbench; ROADMAP 1(b) deletes it"},
	"authorityflow/internal/core.Audit.TotalNodes":         {kindUnread, "conformance compares the audit's candidate count with the reference's"},
	"authorityflow/internal/core.RankResult.Generation":    {kindUnread, "the swap hammers check each result against the generation it pinned"},
	"authorityflow/internal/core.RankResult.RatesVersion":  {kindUnread, "the swap hammers check each result against the rates version it pinned"},
	"authorityflow/internal/core.Reformulation.FlowByType": {kindUnread, "the Eq. 15 tests check the per-type flow sums"},
	"authorityflow/internal/experiments.HITSResult.Hubs":   {kindUnread, "the HITS test checks the hub half of Kleinberg's fixpoint"},
	"authorityflow/internal/rank.Result.InitDropped":       {kindUnread, "the kernel and column tests check that a stale warm start is dropped"},
	"authorityflow/internal/sim.IterationStats.Feedback":   {kindUnread, "the session tests bound each iteration's feedback count"},
	"authorityflow/internal/sim.SessionResult.FinalQuery":  {kindUnread, "the session tests check that feedback expanded the query"},
}

// TestInternalNamesHaveCallers is the caller rule made module-wide and
// type-aware. Production code is every non-test file of the module and
// of the nested cmd/afqbench module. Under internal/, production code
// must use every exported package-level function, method, constant and
// variable; set every exported field of an …Options or …Config struct
// (outside the type's own methods, which only fill defaults); and read
// every exported field of a struct without json tags. A flagged name is
// given a production use, deleted, or listed in testOracles with its
// test role. Uses are resolved by go/types, so a method is matched by
// its receiver type, not by its name.
func TestInternalNamesHaveCallers(t *testing.T) {
	listed := goList(t, ".", "./...")
	listed = append(listed, goList(t, "cmd/afqbench", "./...")...)
	declared, flagged := uncalledNames(typeCheck(t, listed), "authorityflow/internal/")

	if len(declared) == 0 {
		t.Fatal("found no exported name under internal/")
	}
	var lines []string
	for f := range flagged {
		if o, ok := testOracles[f.name]; !ok || o.kind != f.kind {
			lines = append(lines, fmt.Sprintf("%s %s %s: give it one, delete it, or name its test role in testOracles",
				f.kind, strings.TrimPrefix(f.name, "authorityflow/internal/"), missing[f.kind]))
		}
	}
	sort.Strings(lines)
	for _, line := range lines {
		t.Error(line)
	}
	for name, o := range testOracles {
		switch {
		case !declared[name]:
			t.Errorf("testOracles names %s (%s), which no longer exists: drop the entry", name, o.role)
		case !flagged[finding{name, o.kind}]:
			t.Errorf("testOracles names %s %s (%s), which now has the production use it lacked: drop the entry", o.kind, name, o.role)
		}
	}
}

// TestIterateOnlyThroughCore holds rank.Iterate, the one fixpoint
// solver, behind internal/core: production code references it only
// from internal/core, and no exported function of internal/rank reaches
// it, directly or through the package's other functions. Every other
// ranking asks core.Pinned.Solve.
func TestIterateOnlyThroughCore(t *testing.T) {
	const rankPkg, corePkg = "authorityflow/internal/rank", "authorityflow/internal/core"
	listed := goList(t, ".", "./...")
	listed = append(listed, goList(t, "cmd/afqbench", "./...")...)
	pkgs := typeCheck(t, listed)
	var iterate types.Object
	for _, c := range pkgs {
		if c.pkg.Path() == rankPkg {
			iterate = c.pkg.Scope().Lookup("Iterate")
		}
	}
	if iterate == nil {
		t.Fatal("found no rank.Iterate")
	}
	calls := map[types.Object][]types.Object{} // each function of rank → the names of rank it uses
	for _, c := range pkgs {
		path := c.pkg.Path()
		for _, f := range c.files {
			for _, d := range f.Decls {
				where := path
				var caller types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					caller = c.info.Defs[fd.Name]
					where += "." + fd.Name.Name
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok || c.info.Uses[id] == nil {
						return true
					}
					switch obj := c.info.Uses[id]; {
					case path == rankPkg && caller != nil:
						calls[caller] = append(calls[caller], obj)
					case obj == iterate && path != corePkg:
						t.Errorf("%s references rank.Iterate: solve through core.Pinned.Solve", where)
					}
					return true
				})
			}
		}
	}
	var reaches func(fn types.Object, seen map[types.Object]bool) bool
	reaches = func(fn types.Object, seen map[types.Object]bool) bool {
		if seen[fn] {
			return false
		}
		seen[fn] = true
		for _, callee := range calls[fn] {
			if callee == iterate || reaches(callee, seen) {
				return true
			}
		}
		return false
	}
	var solvers []string
	for fn := range calls {
		if fn != iterate && fn.Exported() && reaches(fn, map[types.Object]bool{}) {
			solvers = append(solvers, fn.Name())
		}
	}
	sort.Strings(solvers)
	for _, name := range solvers {
		t.Errorf("rank.%s reaches Iterate: internal/rank exports no solver but Iterate", name)
	}
}

// TestCallerRuleFlagsPlantedNames points the rule at a fixture package
// that plants one name of each kind beside a method that satisfies
// fmt.Stringer and one that satisfies the fixture's own interface: the
// rule must flag the four planted names and nothing else.
func TestCallerRuleFlagsPlantedNames(t *testing.T) {
	const pkg = "authorityflow/testdata/callerrule"
	_, flagged := uncalledNames(typeCheck(t, goList(t, ".", "./testdata/callerrule")), "authorityflow/testdata/")
	want := map[finding]bool{
		{pkg + ".Unused", kindConstant}:        true,
		{pkg + ".Square.Uncalled", kindMethod}: true,
		{pkg + ".Options.Unset", kindUnset}:    true,
		{pkg + ".Result.Unread", kindUnread}:   true,
	}
	for f := range flagged {
		if !want[f] {
			t.Errorf("flagged %s %s, which the fixture uses", f.kind, f.name)
		}
	}
	for f := range want {
		if !flagged[f] {
			t.Errorf("did not flag the planted %s %s", f.kind, f.name)
		}
	}
}

// missing says, per kind, what production code fails to do with a name.
var missing = map[string]string{
	kindFunction: "has no use outside the tests",
	kindMethod:   "has no use outside the tests",
	kindConstant: "has no use outside the tests",
	kindVariable: "has no use outside the tests",
	kindUnset:    "is set by no production code",
	kindUnread:   "is read by no production code",
}

// finding is one name the caller rule flags, with the kind it is
// flagged as: a field can be both an unset option and an unread field.
type finding struct{ name, kind string }

// listedPackage is the part of go list's JSON the rule needs.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// goList lists the packages matching patterns in module directory dir
// and all their dependencies, dependencies first, with the export data
// of each compiled package.
func goList(t *testing.T, dir string, patterns ...string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// checkedPackage is one type-checked package, non-test files only.
type checkedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// typeCheck checks every non-standard package of listed from source, in
// go list's dependency order, once even when two listings name it; a
// standard package is imported from its export data.
func typeCheck(t *testing.T, listed []listedPackage) []*checkedPackage {
	t.Helper()
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range listed {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if file := exports[path]; file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("go list gave no export data for %s", path)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	var pkgs []*checkedPackage
	for _, p := range listed {
		if p.Standard || checked[p.ImportPath] != nil {
			continue
		}
		c := &checkedPackage{info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			c.files = append(c.files, f)
		}
		var err error
		if c.pkg, err = conf.Check(p.ImportPath, fset, c.files, c.info); err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = c.pkg
		pkgs = append(pkgs, c)
	}
	return pkgs
}

// uncalledNames applies the caller rule to pkgs, all of them production
// code. It examines the exported names declared in the packages whose
// import path starts with prefix, and returns every name it examined and
// the findings among them.
func uncalledNames(pkgs []*checkedPackage, prefix string) (declared map[string]bool, flagged map[finding]bool) {
	declared = map[string]bool{}
	ifaces := namedInterfaces(pkgs)
	objects := map[types.Object]finding{}     // functions, methods, constants, variables
	options := map[*types.Var]finding{}       // fields that must be set
	fields := map[*types.Var]finding{}        // fields that must be read
	owner := map[*types.Var]*types.TypeName{} // the struct type declaring an options field
	for _, c := range pkgs {
		path := c.pkg.Path()
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		for _, f := range c.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					fn := c.info.Defs[d.Name].(*types.Func)
					if d.Recv == nil {
						objects[fn] = finding{path + "." + fn.Name(), kindFunction}
					} else if recv := receiver(fn); !exempt(fn, recv, ifaces) {
						objects[fn] = finding{path + "." + recv.Obj().Name() + "." + fn.Name(), kindMethod}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							kind := kindVariable
							if d.Tok == token.CONST {
								kind = kindConstant
							}
							for _, id := range spec.Names {
								if id.IsExported() {
									objects[c.info.Defs[id]] = finding{path + "." + id.Name, kind}
								}
							}
						case *ast.TypeSpec:
							st, ok := spec.Type.(*ast.StructType)
							if !ok {
								continue
							}
							tn := c.info.Defs[spec.Name].(*types.TypeName)
							isOptions := strings.HasSuffix(tn.Name(), "Options") || strings.HasSuffix(tn.Name(), "Config")
							tagged := false
							for _, fld := range st.Fields.List {
								tagged = tagged || (fld.Tag != nil && strings.Contains(fld.Tag.Value, `json:"`))
							}
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									if !id.IsExported() {
										continue
									}
									v := c.info.Defs[id].(*types.Var)
									name := path + "." + tn.Name() + "." + id.Name
									declared[name] = true
									if isOptions {
										options[v] = finding{name, kindUnset}
										owner[v] = tn
									}
									if !tagged {
										fields[v] = finding{name, kindUnread}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	for _, f := range objects {
		declared[f.name] = true
	}

	used := map[types.Object]bool{}
	read := map[*types.Var]bool{}
	written := map[*types.Var]bool{}
	for _, c := range pkgs {
		for _, obj := range c.info.Uses {
			used[origin(obj)] = true
		}
		for _, f := range c.files {
			for _, d := range f.Decls {
				// A method's writes to its own type's fields fill defaults;
				// they do not set an option.
				var self *types.TypeName
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					self = receiver(c.info.Defs[fd.Name].(*types.Func)).Obj()
				}
				write := func(v *types.Var) {
					if v = origin(v).(*types.Var); self == nil || owner[v] != self {
						written[v] = true
					}
				}
				// An assignment, op= or ++ target is written, not read: a
				// field only ever accumulated into is read by nobody. An
				// addressed field is both.
				assigned := map[ast.Expr]bool{}
				addressed := map[ast.Expr]bool{}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, e := range n.Lhs {
							assigned[e] = true
						}
					case *ast.IncDecStmt:
						assigned[n.X] = true
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							addressed[n.X] = true
						}
					case *ast.CompositeLit:
						typ := c.info.TypeOf(n)
						if p, ok := typ.(*types.Pointer); ok {
							typ = p.Elem()
						}
						st, ok := typ.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								write(c.info.Uses[kv.Key.(*ast.Ident)].(*types.Var))
							} else {
								write(st.Field(i))
							}
						}
					case *ast.SelectorExpr:
						if sel := c.info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
							v := origin(sel.Obj()).(*types.Var)
							if assigned[n] || addressed[n] {
								write(v)
							}
							if !assigned[n] {
								read[v] = true
							}
						}
					}
					return true
				})
			}
		}
	}

	flagged = map[finding]bool{}
	for obj, f := range objects {
		if !used[obj] {
			flagged[f] = true
		}
	}
	for v, f := range options {
		if !written[v] {
			flagged[f] = true
		}
	}
	for v, f := range fields {
		if !read[v] {
			flagged[f] = true
		}
	}
	return declared, flagged
}

// origin maps a field or method of an instantiated generic type to the
// one its declaration defines.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// receiver is the named type a method is declared on.
func receiver(fn *types.Func) *types.Named {
	typ := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	return typ.(*types.Named)
}

// namedInterfaces lists the error interface and every non-generic named
// interface declared in pkgs or in a package they import, directly or
// not.
func namedInterfaces(pkgs []*checkedPackage) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					if iface, ok := named.Underlying().(*types.Interface); ok {
						ifaces = append(ifaces, iface)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, c := range pkgs {
		visit(c.pkg)
	}
	return ifaces
}

// exempt reports whether method fn of recv is there to satisfy one of
// ifaces: recv or *recv implements an interface that declares the
// method. Callers of such a method reach it through the interface,
// where go/types records the interface's method instead.
func exempt(fn *types.Func, recv *types.Named, ifaces []*types.Interface) bool {
	// errors.Is and errors.As find Unwrap through an unnamed interface,
	// the one convention of its kind the standard library checks.
	if sig := fn.Type().(*types.Signature); fn.Name() == "Unwrap" && sig.Params().Len() == 0 &&
		sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Universe.Lookup("error").Type()) {
		return true
	}
	if recv.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() &&
				(types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
				return true
			}
		}
	}
	return false
}
