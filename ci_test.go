package proteus_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests: every `go test … -run P … pkgs` command in the
// CI workflow selects real tests. Each `|`-separated alternative of P must
// match at least one `func Test…` in the _test.go files of the packages the
// command lists, so a renamed or deleted test cannot leave a CI step that
// silently runs nothing. `-run NONE` next to `-bench` (benchmarks only) is
// exempt. And every package that declares a `func Benchmark…` must be
// listed by some `go test … -bench` command, so a paper benchmark moved
// next to its package cannot silently leave CI.
func TestCIRunPatternsNameTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	benched := map[string]bool{}
	for _, line := range strings.Split(string(ci), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		pattern, bench, pkgs := parseGoTest(cmd)
		for _, pkg := range pkgs {
			benched[filepath.Clean(pkg)] = benched[filepath.Clean(pkg)] || bench
		}
		if pattern == "" || (pattern == "NONE" && bench) {
			continue
		}
		if len(pkgs) == 0 {
			t.Errorf("no package in %q", strings.TrimSpace(line))
			continue
		}
		var tests []string
		for _, pkg := range pkgs {
			tests = append(tests, testFuncs(t, pkg)...)
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-run alternative %q: %v", alt, err)
				continue
			}
			found := false
			for _, name := range tests {
				found = found || re.MatchString(name)
			}
			if !found {
				t.Errorf("-run alternative %q names no test in %v", alt, pkgs)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no `go test -run` command found in ci.yml")
	}
	for _, pkg := range benchPackages(t) {
		if !benched[pkg] {
			t.Errorf("package %s declares benchmarks, but no `go test … -bench` command in ci.yml lists it", pkg)
		}
	}
}

var benchFunc = regexp.MustCompile(`(?m)^func Benchmark\w*\(`)

// benchPackages lists the directories, relative to the repo root ("." for
// the root), whose _test.go files declare a Benchmark function. Hidden
// directories (.git, the benchmark's build cache) are skipped.
func benchPackages(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(path)
		if !strings.HasSuffix(path, "_test.go") || seen[dir] {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if benchFunc.Match(src) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no package declares a benchmark")
	}
	return dirs
}

// parseGoTest reads the arguments of one `go test` command line: the -run
// pattern (unquoted), whether -bench is set, and the package directories
// (the other arguments that start with "."). It stops at a shell
// separator.
func parseGoTest(cmd string) (pattern string, bench bool, pkgs []string) {
	var args []string
	for i, f := range strings.Split(cmd, "'") {
		if i%2 == 1 { // inside single quotes: one argument
			args = append(args, f)
			continue
		}
		for _, w := range strings.Fields(f) {
			if w == "|" || w == ";" || w == "&&" || w == "||" || strings.HasPrefix(w, "#") {
				return pattern, bench, pkgs
			}
			args = append(args, w)
		}
	}
	for i := 0; i < len(args); i++ {
		switch a := args[i]; {
		case a == "-run" && i+1 < len(args):
			i++
			pattern = args[i]
		case a == "-bench" && i+1 < len(args):
			i++
			bench = true
		case strings.HasPrefix(a, "."):
			pkgs = append(pkgs, a)
		}
	}
	return pattern, bench, pkgs
}

var testFunc = regexp.MustCompile(`(?m)^func (Test\w+)\(`)

// testFuncs lists the Test functions declared in a package directory's
// _test.go files.
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	if strings.Contains(pkg, "...") {
		t.Fatalf("package pattern %q: list the package directories a -run step covers", pkg)
	}
	files, err := filepath.Glob(filepath.Join(filepath.FromSlash(pkg), "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("package %q: no _test.go files (%v)", pkg, err)
	}
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	return names
}

// TestInternalReadsNoCoreCount: each rank runs its kernels on its own
// goroutine, so nothing under internal/ may size work from the machine.
// A call of runtime.GOMAXPROCS or runtime.NumCPU in a non-test file there
// would bring back the one way fields could depend on GOMAXPROCS, and with
// it the contract that runs are bitwise at a fixed rank count under any
// GOMAXPROCS.
func TestInternalReadsNoCoreCount(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		checked++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != "runtime" {
				continue
			}
			name := "runtime"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name && (sel.Sel.Name == "GOMAXPROCS" || sel.Sel.Name == "NumCPU") {
					t.Errorf("%s: runtime.%s: kernels must not size work from the core count", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no non-test Go file found under internal/")
	}
}

// linkedAllowlist names the non-test functions under internal/ that no
// production binary links but another package's tests need, each mapped
// to a test file that calls it, or that calls it through another entry
// ("file via Name"). Keys are linker names: "pkg.F", "pkg.(*T).M" for a
// pointer method, "pkg.T.M" for a value method.
var linkedAllowlist = map[string]string{
	"proteus/internal/chns.(*Solver).MeshEpoch":              "internal/core/core_test.go",
	"proteus/internal/chns.(*Solver).PhiMass":                "internal/core/core_test.go",
	"proteus/internal/fault.(*Injector).Verdicts":            "internal/core/health_test.go",
	"proteus/internal/fem.UnzipMat":                          "internal/chns/tablei_test.go",
	"proteus/internal/mesh.(*Mesh).ElemOrigin":               "internal/detect/detect_test.go",
	"proteus/internal/mg.(*PCGMG).Hierarchy":                 "internal/chns/gmg_test.go",
	"proteus/internal/octree.Uniform":                        "internal/mesh/mesh_test.go",
	"proteus/internal/octree.(*Tree).FinestOverlappingLevel": "internal/transfer/bench_test.go",
	"proteus/internal/par.(*Comm).CommSplit":                 "internal/dsort/sort_test.go via CommSplitCached",
	"proteus/internal/par.(*Comm).CommSplitCached":           "internal/dsort/sort_test.go",
	"proteus/internal/scenario.Scenario.New":                 "internal/chns/ch_blocks_e2e_test.go",
	"proteus/internal/sfc.Octant.Valid":                      "internal/octree/oracle_test.go",
	"proteus/internal/sfc.Octant.Parent":                     "internal/transfer/bench_test.go",
	"proteus/internal/sfc.Octant.ChildIndex":                 "internal/octree/bench_test.go",
}

// productionBinaries are the main packages whose linked code defines
// "production": the CLI, the two inspection commands and the benchmark.
var productionBinaries = []string{"./cmd/proteus", "./cmd/scaling", "./cmd/meshstats", "./benchmark"}

// TestInternalCodeIsLinked: every non-test function under internal/ is
// linked into a production binary, or is on linkedAllowlist. Paper
// baselines and test oracles live in _test.go files, next to the
// benchmark or test that needs them, not in production packages. The
// binaries are built with inlining off for this module's packages, so a
// function that is called is a text symbol.
func TestInternalCodeIsLinked(t *testing.T) {
	dir := t.TempDir()
	linked := map[string]bool{}
	for _, pkg := range productionBinaries {
		bin := filepath.Join(dir, filepath.Base(pkg))
		out, err := exec.Command("go", "build", "-gcflags=proteus/...=-l", "-buildvcs=false", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
		out, err = exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// "addr T name": a generic name may hold spaces inside [...].
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") && strings.HasPrefix(f[2], "proteus/internal/") {
				linked[dropTypeArgs(f[2])] = true
			}
		}
	}
	if len(linked) == 0 {
		t.Fatal("no proteus/internal/ text symbol in the production binaries")
	}

	fset := token.NewFileSet()
	checked := 0
	allowed := map[string]bool{} // allowlist entries declared and unlinked
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "proteus/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			checked++
			names := funcSymbols(pkg, fn)
			found := false
			for _, name := range names {
				found = found || linked[name]
			}
			if found {
				continue
			}
			if _, ok := linkedAllowlist[names[0]]; ok {
				allowed[names[0]] = true
				continue
			}
			t.Errorf("%s: %s is linked into no production binary; move it to the _test.go file that needs it, or delete it", fset.Position(fn.Pos()), names[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no non-test function found under internal/")
	}
	for name, use := range linkedAllowlist {
		if !allowed[name] {
			t.Errorf("allowlist entry %s: not an unlinked function under internal/; drop the entry", name)
		}
		file, via, ok := strings.Cut(use, " via ")
		if !ok {
			via = name[strings.LastIndex(name, ".")+1:]
		}
		src, err := os.ReadFile(file)
		if err != nil || !regexp.MustCompile(`\b`+via+`\(`).Match(src) {
			t.Errorf("allowlist entry %s: %s does not call %s (%v)", name, file, via, err)
		}
	}
}

// funcSymbols gives the linker symbols a function declaration may appear
// under: "pkg.F", or for a method "pkg.(*T).M" and "pkg.T.M" (a value
// method is linked under either). Type parameters are dropped, as they
// are from the linked names.
func funcSymbols(pkg string, fn *ast.FuncDecl) []string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return []string{pkg + "." + fn.Name.Name}
	}
	typ := fn.Recv.List[0].Type
	star, ok := typ.(*ast.StarExpr)
	if ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	ptr := pkg + ".(*" + recv + ")." + fn.Name.Name
	val := pkg + "." + recv + "." + fn.Name.Name
	if ok {
		return []string{ptr, val}
	}
	return []string{val, ptr}
}

// dropTypeArgs removes every bracketed type-argument list from a linker
// symbol: "pkg.F[go.shape.int].func1" becomes "pkg.F.func1".
func dropTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
