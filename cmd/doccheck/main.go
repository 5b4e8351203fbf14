// Command doccheck fails the build when exported API lacks documentation.
// It parses the non-test Go files of each directory given on the command
// line and reports every exported top-level identifier — function, method,
// type, const or var group — without a doc comment, plus packages missing
// a package comment.  Files carrying the standard "Code generated ...
// DO NOT EDIT." header are exempt: their documentation burden lies with
// the generator that emits them.  The `make docs` target runs it over the
// whole module so godoc stays complete as the API grows.
//
// Usage:
//
//	doccheck DIR [DIR...]
//	go run ./cmd/doccheck . ./internal/* ./cmd/*
//
// Exit status is non-zero when any identifier is undocumented.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck DIR [DIR...]")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		problems, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Println(p)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented exported identifiers\n", bad)
		os.Exit(1)
	}
}

// checkDir parses one package directory and lists its documentation gaps.
// Directories without Go files are skipped silently so shell globs can
// pass non-package paths.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var problems []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
		for name, f := range pkg.Files {
			// Generated files carry the standard "Code generated ...
			// DO NOT EDIT." header; their documentation lives in the
			// generator, not the output.
			if ast.IsGenerated(f) {
				continue
			}
			problems = append(problems, checkFile(fset, name, f)...)
		}
	}
	return problems, nil
}

// checkFile lists the undocumented exported declarations of one file.
func checkFile(fset *token.FileSet, name string, f *ast.File) []string {
	var problems []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: %s is exported but undocumented",
			filepath.ToSlash(p.Filename), p.Line, what))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil && exportedRecv(d) {
				report(d.Pos(), declName(d))
			}
		case *ast.GenDecl:
			// A doc comment on the group covers every spec in it —
			// idiomatic for const blocks and factored var decls.
			if d.Doc != nil {
				continue
			}
			for i, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					if s.Doc != nil || s.Comment != nil {
						continue
					}
					// Inside a parenthesized group only the first spec
					// must carry the comment (the golint convention for
					// enum blocks); later members inherit the block's
					// context in godoc.
					if d.Lparen.IsValid() && i > 0 {
						continue
					}
					for _, id := range s.Names {
						if id.IsExported() {
							report(id.Pos(), fmt.Sprintf("%s %s", d.Tok, id.Name))
						}
					}
				}
			}
		}
	}
	return problems
}

// exportedRecv reports whether a function is package-level or a method on
// an exported type; methods on unexported types are internal API and not
// godoc-visible, so they are exempt.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// declName renders a function or method name the way godoc lists it.
func declName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "func " + d.Name.Name
	}
	t := d.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return fmt.Sprintf("method %s.%s", id.Name, d.Name.Name)
	}
	return "method " + d.Name.Name
}
