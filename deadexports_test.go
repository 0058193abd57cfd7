package l4e

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

// deadExportAllowlist names exported declarations that no non-test file
// names on purpose, keyed "dir.Name" (methods "dir.Type.Name"), with the
// reason.
var deadExportAllowlist = map[string]string{
	"internal/bandit.TheoremOneBound": "feeds BenchmarkRegretBound (Theorem 1)",
	"internal/bandit.LemmaOneGap":     "feeds BenchmarkRegretBound (Theorem 1)",
}

// deadExportAllowDirs names packages that only tests import by design, with
// the reason.
var deadExportAllowDirs = map[string]string{
	"internal/flow/flowref": "the SSP referee the network simplex is tested against",
}

// TestNoDeadExports fails when an exported declaration outside the root l4e
// facade is named by no non-test file of the repository (the mecbench module
// included): such code is read only by its own tests. Methods that satisfy
// a standard-library interface (String, Error, ...) are named by no file
// either and are listed in stdInterfaceMethods.
func TestNoDeadExports(t *testing.T) {
	type decl struct {
		key string
		pos token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		files = append(files, f)
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." || deadExportAllowDirs[dir] != "" {
			return nil
		}
		add := func(id *ast.Ident, key string) {
			if id.IsExported() {
				declIdents[id] = true
				decls = append(decls, decl{dir + "." + key, fset.Position(id.Pos())})
			}
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				if dl.Recv == nil {
					add(dl.Name, dl.Name.Name)
				} else if recv := recvTypeName(dl.Recv.List[0].Type); ast.IsExported(recv) && !stdInterfaceMethods[dl.Name.Name] {
					add(dl.Name, recv+"."+dl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec.Name.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, id.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				named[id.Name] = true
			}
			return true
		})
	}
	var dead []string
	for _, d := range decls {
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		if !named[name] && deadExportAllowlist[d.key] == "" {
			dead = append(dead, d.key+" ("+d.pos.String()+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported %s is named by no non-test file: delete it, or allowlist it with the reason", d)
	}
}

// stdInterfaceMethods are method names the standard library calls through
// its own interfaces (fmt.Stringer, error, json.Marshaler, http.Handler,
// io.Writer, ...), so a method satisfying one may be named by no file of this
// repository.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Write": true, "Read": true, "Close": true,
}

// recvTypeName returns the type name of a method receiver expression.
func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.IndexExpr:
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
