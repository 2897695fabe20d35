package saferatt

// The parse-and-type-check pass TestReachable (reach_test.go) and
// TestOptions (options_test.go) share, stdlib go/parser + go/types only.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
)

// tree is the type-checked non-test source under the repository root.
type tree struct {
	info  *types.Info
	files map[string][]*ast.File // by import path
}

var (
	fset = token.NewFileSet()
	std  = importer.ForCompiler(fset, "source", nil) // the standard library, type-checked from source once
	head *tree                                       // loadTree(t, nil): both tests pay for it once
)

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadTree type-checks the non-test files of every package under the
// repository root (bench/ included), plus one injected file per entry of
// inject (import path -> source).
func loadTree(t *testing.T, inject map[string]string) *tree {
	if bi, _ := debug.ReadBuildInfo(); testing.Short() || bi != nil && strings.Contains(fmt.Sprint(bi.Settings), "{-race true}") {
		t.Skip("type-checks the standard library from source: seconds, and many more under -race for the same answer")
	}
	if inject == nil && head != nil {
		return head
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkgs, files := map[string]*types.Package{}, map[string][]*ast.File{}
	// A saferatt/... import path is a directory under the root; anything
	// else is the standard library.
	var load importerFunc
	load = func(path string) (*types.Package, error) {
		if path != "saferatt" && !strings.HasPrefix(path, "saferatt/") {
			return std.Import(path)
		}
		if pkg := pkgs[path]; pkg != nil {
			return pkg, nil
		}
		srcs := map[string]any{} // file name -> source; nil reads the file
		names, _ := filepath.Glob("." + strings.TrimPrefix(path, "saferatt") + "/*.go")
		for _, name := range names {
			if !strings.HasSuffix(name, "_test.go") {
				srcs[name] = nil
			}
		}
		if src, ok := inject[path]; ok {
			srcs["injected.go"] = src
		}
		for name, src := range srcs {
			f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files[path] = append(files[path], f)
		}
		pkg, err := (&types.Config{Importer: load}).Check(path, fset, files[path], info)
		pkgs[path] = pkg
		return pkg, err
	}
	if err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != "." && (n[0] == '.' || n == "testdata") {
			return filepath.SkipDir
		}
		_, err = load(filepath.ToSlash(filepath.Join("saferatt", path))) // no Go files: an empty package
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tr := &tree{info, files}
	if inject == nil {
		head = tr
	}
	return tr
}
