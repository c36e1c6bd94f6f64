package sistream

// The fail-stop gate: the storage and transaction layers must degrade,
// not crash. A panic in internal/txn or internal/lsm takes down the whole
// process — every lane, every group, every table — where the fail-stop
// design (Group.Err, lsm.ErrDBFailed) wants the failure contained to the
// poisoned group while reads keep serving. This AST gate enforces it
// mechanically: no `panic(` in non-test code under those packages outside
// a short, justified allowlist.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// panicAllowlist names the panic sites that are deliberately kept, as
// "file base name" → maximum allowed panic calls in that file; the cap
// keeps the allowlist from silently absorbing new sites. It is empty: no
// site in these layers is a crash-worthy invariant today.
var panicAllowlist = map[string]int{}

// TestNoPanicsInFailStopLayers walks every non-test source file of
// internal/txn and internal/lsm and fails on any panic call not covered
// by the allowlist. Replace the panic with group/DB poisoning (see
// failstop.go) — or, if the site truly is a crash-worthy invariant,
// document why and extend the allowlist in the same change.
func TestNoPanicsInFailStopLayers(t *testing.T) {
	var violations []string
	counts := map[string]int{}
	for _, dir := range []string{"internal/txn", "internal/lsm"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn, ok := call.Fun.(*ast.Ident)
					if !ok || fn.Name != "panic" {
						return true
					}
					pos := fset.Position(call.Pos())
					base := filepath.Base(pos.Filename)
					counts[base]++
					if counts[base] > panicAllowlist[base] {
						violations = append(violations,
							pos.Filename+":"+strconv.Itoa(pos.Line))
					}
					return true
				})
			}
		}
	}
	if len(violations) > 0 {
		t.Fatalf("panic() in fail-stop layers (poison the group/DB instead, see internal/txn/failstop.go):\n  %s",
			strings.Join(violations, "\n  "))
	}
}
