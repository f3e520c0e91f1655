package cdb_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cdb/internal/bench"
)

// docsAllowed are the backticked names the docs may cite although the
// module declares none of them, each with its reason.
var docsAllowed = map[string]string{
	"Baseline":            "the budget experiments' method label",
	"DeepEqual":           "reflect.DeepEqual, standard library",
	"IsSpace":             "unicode.IsSpace, standard library",
	"stats.partial":       "a field of the wire Result's JSON",
	"Graph.UID":           "history: §7 says it was deleted",
	"Graph.WeightVersion": "history: §7 says it was deleted",
}

// TestDocsNameLiveIdentifiers: every Go identifier DESIGN.md, README.md
// and EXPERIMENTS.md cite in backticks names something the module
// declares, so a rename or a deletion cannot leave the docs describing
// code that is gone. The module is parsed with go/parser (test files
// included, for the tests the docs cite) and a span is checked when it
// reads as one of:
//
//   - pkg.Name[.Member…], pkg a package of the module: Name is declared
//     at its top level, each Member a method or field of the type before
//     it (through aliases and embedded fields);
//   - Type.Member[.Member…], Type a type of the module: likewise;
//   - a bare mixed-case name (`warmFromJournal`, `LiveOnly`): some
//     top-level name, method or field is spelled so; a trailing `*`
//     matches a prefix;
//   - `-exp name`: a cdbench experiment.
//
// Calls are read without their arguments. Everything else — paths,
// metric and JSON names (they carry underscores), standard-library
// references, CQL — is prose to this test. Fig. 8's method labels
// (bench.Methods) are names too; docsAllowed lists the rest. The docs
// also never cite a ROADMAP item by number: items are renumbered, so
// they name the mechanism instead.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	ix := indexModule(t, ".")
	experiments := append(bench.ExperimentIDs(), "all")
	var (
		receiver = regexp.MustCompile(`\.\(\*(\w+)\)`)
		ref      = regexp.MustCompile(`^\*?([A-Za-z]\w*(?:\.[A-Za-z]\w*)*)(?:\(.*\))?(\*)?$`)
		exp      = regexp.MustCompile(`(?:^|\s)-exp (\S+)`)
		span     = regexp.MustCompile("`([^`]+)`")
		item     = regexp.MustCompile(`ROADMAP item \d+`)
	)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		fenced := false
		for line := 1; sc.Scan(); line++ {
			if strings.HasPrefix(strings.TrimSpace(sc.Text()), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			if m := item.FindString(sc.Text()); m != "" {
				t.Errorf("%s:%d: %q: name the mechanism, not its ROADMAP number", doc, line, m)
			}
			for _, m := range span.FindAllStringSubmatch(sc.Text(), -1) {
				s := m[1]
				if _, ok := docsAllowed[s]; ok || slices.Contains(bench.Methods, s) {
					continue
				}
				if e := exp.FindStringSubmatch(s); e != nil {
					if !slices.Contains(experiments, e[1]) {
						t.Errorf("%s:%d: `%s`: cdbench has no experiment %q", doc, line, s, e[1])
					}
					continue
				}
				r := ref.FindStringSubmatch(receiver.ReplaceAllString(s, ".$1"))
				if r == nil || strings.Contains(r[1], "_") {
					continue
				}
				if why := ix.resolve(strings.Split(r[1], "."), r[2] != ""); why != "" {
					t.Errorf("%s:%d: `%s`: %s", doc, line, s, why)
				}
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOneDriver: the executor has one driver. No program file but the
// pipeline (internal/engine/pipeline.go) and the benchmark harness
// (benchmark/) calls exec.Run, exec.BuildPlan, exec.ValuePlan or
// exec.OrderPlan or sets PlanConfig.LiveOnly, so the labeling order, the
// bind scope and the resolver are decided by SelectRequest.order alone,
// GROUP BY's value plan is run by SelectRequest.groupBy alone, ORDER BY's
// order plan by SelectRequest.orderBy alone, and DB.Exec, the engine and
// cdbench all run what they decide.
func TestOneDriver(t *testing.T) {
	pipeline := filepath.Join("internal", "engine", "pipeline.go")
	eachProgramFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if path == pipeline {
			return
		}
		execName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"cdb/internal/exec"` {
				execName = "exec"
				if imp.Name != nil {
					execName = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && slices.Contains([]string{"Run", "BuildPlan", "ValuePlan", "OrderPlan"}, sel.Sel.Name) {
					if x, ok := sel.X.(*ast.Ident); ok && execName != "" && x.Name == execName {
						t.Errorf("%s: calls exec.%s; go through engine.RunSelect", fset.Position(n.Pos()), sel.Sel.Name)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "LiveOnly" {
						t.Errorf("%s: sets LiveOnly; the bind scope is SelectRequest.order's", fset.Position(n.Pos()))
					}
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok && k.Name == "LiveOnly" {
					t.Errorf("%s: sets LiveOnly; the bind scope is SelectRequest.order's", fset.Position(n.Pos()))
				}
			}
			return true
		})
	})
}

// testOnlyExports are the exported internal/ functions and methods that
// only tests call, each with the reason it stays exported.
var testOnlyExports = map[string]string{
	"cost.KnownColorSelect":               "§5.1.1's optimal selection for a known coloring, the reference its tests and benchmark check",
	"cost.PruningExpectation":             "Eq. 1 for one edge, the reference NaiveExpectation and the property tests score with",
	"quality.AssignFill":                  "FILL's task assignment, waiting for FILL to run as crowd rounds",
	"quality.Chao92":                      "COLLECT's species estimator, waiting for COLLECT to run as crowd rounds",
	"quality.CompletenessScore":           "COLLECT's completeness measure, waiting for COLLECT to run as crowd rounds",
	"quality.DecomposeMulti":              "multi-choice FILL answers, waiting for FILL to run as crowd rounds",
	"quality.Calibrator.Curve":            "the fitted calibration curve, waiting for Eq. 1's weights to be calibrated by default",
	"quality.WorkerModel.CalibrateGolden": "golden-task worker calibration, waiting for Eq. 1's weights to be calibrated by default",
}

// TestNoTestOnlyExports: no exported function or method of an internal/
// package exists for tests alone. Each must be named by some non-test
// file — the benchmark harness's included, for it imports internal/
// packages — other than at its declaration, or be listed in
// testOnlyExports; a helper only tests need belongs in a _test.go file.
// The scan is by name, so a name any program file uses counts for every
// declaration of it. internal/testutil exists for tests and is exempt.
func TestNoTestOnlyExports(t *testing.T) {
	used := map[string]bool{}
	type decl struct{ key, pos string }
	var decls []decl
	scan := func(fset *token.FileSet, path string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !strings.HasPrefix(dir, "internal/") || dir == "internal/testutil" || !fn.Name.IsExported() {
				continue
			}
			key := filepath.Base(dir) + "." + fn.Name.Name
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					key = filepath.Base(dir) + "." + id.Name + "." + fn.Name.Name
				}
			}
			decls = append(decls, decl{key, fset.Position(fn.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	eachProgramFile(t, scan)
	harness, err := filepath.Glob(filepath.Join("benchmark", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range harness {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		scan(fset, path, f)
	}
	stale := maps.Clone(testOnlyExports)
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		_, allowed := testOnlyExports[d.key]
		delete(stale, d.key)
		switch {
		case allowed && used[name]:
			t.Errorf("testOnlyExports lists %s, which a program file now calls; drop it", d.key)
		case !allowed && !used[name]:
			t.Errorf("%s: %s is exported for tests alone; unexport it or move it into a _test.go file", d.pos, d.key)
		}
	}
	for key := range stale {
		t.Errorf("testOnlyExports lists %s, which is no longer declared; drop it", key)
	}
}

// crowdForks are the program functions outside the crowd's own
// machinery that still draw answers from a pool themselves, each with
// the reason it is not yet a run of the executor. The list only
// shrinks.
var crowdForks = map[string]string{
	".:DB.execFill": "FILL collects free-text answers outside any plan",
}

// TestOneCrowd: the crowd is asked in one place. Only the crowd
// simulator (internal/crowd), the executor (internal/exec), the
// engine's coalescer and plan.PureResolver call DistinctArrivals,
// AnswerBool, AnswerFill or PureVerdict; every other program function
// that does is a fork of the crowd path and must be listed in
// crowdForks. A fork asks outside the executor's rounds, so its tasks
// miss the metadata store, the trace, the progress hook, the transport
// and the engine's sharing.
func TestOneCrowd(t *testing.T) {
	asks := []string{"DistinctArrivals", "AnswerBool", "AnswerFill", "PureVerdict"}
	crowd := []string{filepath.Join("internal", "crowd"), filepath.Join("internal", "exec")}
	owners := map[string]bool{"internal/engine:coalescer": true, "internal/plan:PureResolver": true}
	seen := map[string]bool{}
	eachProgramFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		dir := filepath.Dir(path)
		if slices.Contains(crowd, dir) {
			return
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name, recv := fn.Name.Name, ""
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					recv = id.Name
					name = recv + "." + name
				}
			}
			if owners[filepath.ToSlash(dir)+":"+recv] {
				continue
			}
			key := filepath.ToSlash(dir) + ":" + name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && slices.Contains(asks, sel.Sel.Name) {
						if _, fork := crowdForks[key]; fork {
							seen[key] = true
						} else {
							t.Errorf("%s: %s calls %s; ask the crowd through an exec.Run", fset.Position(call.Pos()), name, sel.Sel.Name)
						}
					}
				}
				return true
			})
		}
	})
	for key := range crowdForks {
		if !seen[key] {
			t.Errorf("crowdForks lists %s, which no longer asks the crowd; drop it", key)
		}
	}
}

// eachProgramFile parses every non-test Go file of the module outside
// the benchmark harness, testdata and hidden directories, and hands it
// to fn with its path relative to the module root.
func eachProgramFile(t *testing.T, fn func(fset *token.FileSet, path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".") {
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
		fn(fset, path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// goIndex is what TestDocsNameLiveIdentifiers resolves names against.
type goIndex struct {
	pkgs  map[string]map[string]bool // package name → its top-level names
	types map[string]*goType         // "pkg.Type" → its members
	named map[string][]string        // type name → its "pkg.Type" keys
	names map[string]bool            // every top-level, method and field name
}

// goType is one declared type: its methods and fields, each mapped to
// the field's named type ("pkg.Type", "" for a method or an unnamed
// type), its embedded types, and the target of an alias.
type goType struct {
	members map[string]string
	embeds  []string
	alias   string
}

// indexModule parses every Go file under root, skipping testdata and
// hidden directories.
func indexModule(t *testing.T, root string) *goIndex {
	t.Helper()
	ix := &goIndex{pkgs: map[string]map[string]bool{}, types: map[string]*goType{}, named: map[string][]string{}, names: map[string]bool{}}
	typ := func(key string) *goType {
		if ix.types[key] == nil {
			ix.types[key] = &goType{members: map[string]string{}}
			name := key[strings.Index(key, ".")+1:]
			ix.named[name] = append(ix.named[name], key)
		}
		return ix.types[key]
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if ix.pkgs[pkg] == nil {
			ix.pkgs[pkg] = map[string]bool{}
		}
		top := func(name string) {
			ix.pkgs[pkg][name] = true
			ix.names[name] = true
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					top(decl.Name.Name)
					continue
				}
				if recv := typeKey(pkg, decl.Recv.List[0].Type); recv != "" {
					typ(recv).members[decl.Name.Name] = ""
					ix.names[decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							top(n.Name)
						}
					case *ast.TypeSpec:
						top(spec.Name.Name)
						ty := typ(pkg + "." + spec.Name.Name)
						if spec.Assign.IsValid() {
							ty.alias = typeKey(pkg, spec.Type)
						}
						ix.addMembers(ty, pkg, spec.Type)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	delete(ix.pkgs, "main")
	return ix
}

// addMembers records a struct's fields or an interface's methods.
func (ix *goIndex) addMembers(ty *goType, pkg string, expr ast.Expr) {
	switch expr := expr.(type) {
	case *ast.StructType:
		for _, fld := range expr.Fields.List {
			key := typeKey(pkg, fld.Type)
			if len(fld.Names) == 0 {
				ty.embeds = append(ty.embeds, key)
				if i := strings.LastIndex(key, "."); i >= 0 {
					ty.members[key[i+1:]] = key
					ix.names[key[i+1:]] = true
				}
			}
			for _, n := range fld.Names {
				ty.members[n.Name] = key
				ix.names[n.Name] = true
			}
		}
	case *ast.InterfaceType:
		for _, m := range expr.Methods.List {
			for _, n := range m.Names {
				ty.members[n.Name] = ""
				ix.names[n.Name] = true
			}
		}
	}
}

// typeKey names expr's type as "pkg.Type" — through a pointer, with its
// type arguments dropped — or "" when it is not a named type.
func typeKey(pkg string, expr ast.Expr) string {
	switch expr := expr.(type) {
	case *ast.StarExpr:
		return typeKey(pkg, expr.X)
	case *ast.IndexExpr:
		return typeKey(pkg, expr.X)
	case *ast.IndexListExpr:
		return typeKey(pkg, expr.X)
	case *ast.Ident:
		return pkg + "." + expr.Name
	case *ast.SelectorExpr:
		if x, ok := expr.X.(*ast.Ident); ok {
			return x.Name + "." + expr.Sel.Name
		}
	}
	return ""
}

// resolve checks a dotted reference and says what does not resolve, ""
// when it all does or when it names nothing of the module's. prefix
// marks a trailing `*` on a bare name.
func (ix *goIndex) resolve(parts []string, prefix bool) string {
	if len(parts) == 1 {
		name := parts[0]
		if strings.ToLower(name) == name || strings.ToUpper(name) == name {
			return "" // a word, or an acronym
		}
		for n := range ix.names {
			if n == name || prefix && strings.HasPrefix(n, name) {
				return ""
			}
		}
		return "the module declares no such name"
	}
	var cur []string
	switch {
	case ix.pkgs[parts[0]] != nil:
		if !ix.pkgs[parts[0]][parts[1]] {
			return "package " + parts[0] + " declares no " + parts[1]
		}
		if ix.types[parts[0]+"."+parts[1]] == nil {
			return "" // a func, var or const: what follows is not a member
		}
		cur, parts = []string{parts[0] + "." + parts[1]}, parts[2:]
	case ix.named[parts[0]] != nil:
		cur, parts = ix.named[parts[0]], parts[1:]
	default:
		return ""
	}
	for _, name := range parts {
		var next []string
		found := false
		for _, key := range cur {
			if k, ok := ix.member(key, name, 0); ok {
				found = true
				if k != "" && !slices.Contains(next, k) {
					next = append(next, k)
				}
			}
		}
		if !found {
			return strings.Join(cur, " or ") + " has no method or field " + name
		}
		if len(next) == 0 {
			return "" // a method's result or an unnamed type: unchecked
		}
		cur = next
	}
	return ""
}

// member finds name on the type key, through its alias and embedded
// types, and returns the member's own type key.
func (ix *goIndex) member(key, name string, depth int) (string, bool) {
	ty := ix.types[key]
	if ty == nil || depth > 8 {
		return "", false
	}
	if k, ok := ty.members[name]; ok {
		return k, true
	}
	for _, via := range append([]string{ty.alias}, ty.embeds...) {
		if k, ok := ix.member(via, name, depth+1); ok {
			return k, true
		}
	}
	return "", false
}
