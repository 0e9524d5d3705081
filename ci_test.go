package proteus_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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
// exempt.
func TestCIRunPatternsNameTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range strings.Split(string(ci), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		pattern, bench, pkgs := parseGoTest(cmd)
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
