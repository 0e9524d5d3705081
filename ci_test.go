package proteus_test

import (
	"os"
	"path/filepath"
	"regexp"
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
