// doclint enforces the repository's documentation floor so the package
// docs CI advertises cannot silently rot:
//
//   - Every package in the module must carry a package doc comment (on any
//     one of its files).
//   - In strict packages (-strict, default the documented library surface
//     and the loadgen drills), every exported top-level
//     declaration — funcs, methods with exported receivers, types, and
//     exported const/var specs — must carry its own doc comment.
//
// Test files are exempt everywhere; example functions are documentation.
// Exits 1 listing every violation as file:line so the findings are
// clickable in CI logs.
//
// Usage:
//
//	go run ./cmd/doclint
//	go run ./cmd/doclint -strict internal/obsv,internal/policy
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	strict := flag.String("strict",
		"internal/obsv,internal/policy,internal/faultinj,internal/traceprof,internal/cluster,internal/cluster/client,internal/overload,internal/blockcache,internal/rans,internal/tiering,internal/drill,internal/romimg",
		"comma-separated package dirs where every exported declaration needs a doc comment")
	root := flag.String("root", ".", "module root to lint")
	flag.Parse()

	strictDirs := make(map[string]bool)
	for _, d := range strings.Split(*strict, ",") {
		if d = strings.TrimSpace(d); d != "" {
			strictDirs[filepath.Clean(d)] = true
		}
	}

	dirs, err := goDirs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(1)
	}
	var problems []string
	for _, dir := range dirs {
		rel, _ := filepath.Rel(*root, dir)
		ps, err := lintDir(dir, rel, strictDirs[filepath.Clean(rel)])
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(1)
		}
		problems = append(problems, ps...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d problems\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("doclint: %d packages clean (%d strict)\n", len(dirs), len(strictDirs))
}

// goDirs returns every directory under root holding non-test Go files,
// skipping hidden directories and testdata.
func goDirs(root string) ([]string, error) {
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// lintDir checks one package directory. Non-test files only; strict adds
// the exported-declaration rule.
func lintDir(dir, rel string, strict bool) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rel, err)
	}
	var problems []string
	for _, pkg := range pkgs {
		hasDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasDoc = true
			}
		}
		if !hasDoc {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package doc comment", rel, pkg.Name))
		}
		if !strict {
			continue
		}
		// Deterministic file order for stable output.
		names := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			problems = append(problems, lintFile(fset, pkg.Files[name])...)
		}
	}
	return problems, nil
}

// lintFile reports exported top-level declarations without doc comments.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	undocumented := func(pos token.Pos, what, name string) {
		problems = append(problems, fmt.Sprintf("%s: exported %s %s has no doc comment",
			fset.Position(pos), what, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedRecv(d) {
				continue
			}
			if d.Doc == nil || strings.TrimSpace(d.Doc.Text()) == "" {
				what := "function"
				if d.Recv != nil {
					what = "method"
				}
				undocumented(d.Pos(), what, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						undocumented(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						// A doc comment on the grouped decl covers its
						// specs; a trailing line comment also counts.
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							undocumented(n.Pos(), kindWord(d.Tok), n.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// exportedRecv reports whether a function's receiver (if any) names an
// exported type — methods on unexported types are internal API.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

func kindWord(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
