package sistream

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests keeps the named CI gates honest: every
// alternative of every `go test -run '…'` regex in the workflow must match
// at least one test (or fuzz target) in the packages that command lists.
// A stale name — a test renamed or deleted — would otherwise let a gate
// pass without running anything.
func TestCIRunPatternsMatchTests(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	cmds := regexp.MustCompile(`go test[^\n]*?-run '([^']*)'([^\n]*)`).FindAllStringSubmatch(string(data), -1)
	if len(cmds) == 0 {
		t.Fatal("no `go test -run` patterns found in ci.yml")
	}
	for _, cmd := range cmds {
		pattern := cmd[1]
		if pattern == "^$" { // deliberately runs no test
			continue
		}
		var pkgs []string
		for _, f := range strings.Fields(cmd[2]) {
			if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		names := testNames(t, pkgs)
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml -run alternative %q: %v", alt, err)
				continue
			}
			matched := false
			for _, name := range names {
				if re.MatchString(name) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("ci.yml -run alternative %q matches no test in %v", alt, pkgs)
			}
		}
	}
}

// testNames returns the top-level Test and Fuzz functions of the test
// files in the given package arguments ("./dir", "./dir/...", ".").
func testNames(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	addDir := func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil {
					continue
				}
				if name := fn.Name.Name; strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz") {
					names = append(names, name)
				}
			}
		}
	}
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "/...")
		if !recursive {
			addDir(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			addDir(path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}
