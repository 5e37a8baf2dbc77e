package freezetag_test

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

// TestNoL2Twins keeps every distance function at one entry point: a
// function XIn whose first parameter is a Metric already means ℓ2 when
// passed nil, so a package must not also declare an X on the same receiver
// that spells that default a second time.
func TestNoL2Twins(t *testing.T) {
	dirs := []string{"."}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			dirs = append(dirs, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var twins []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		declared := map[string]bool{}
		var rooted []*ast.FuncDecl
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declared[receiverOf(fn)+fn.Name.Name] = true
				if strings.HasSuffix(fn.Name.Name, "In") && takesMetricFirst(fn) {
					rooted = append(rooted, fn)
				}
			}
		}
		for _, fn := range rooted {
			twin := receiverOf(fn) + strings.TrimSuffix(fn.Name.Name, "In")
			if declared[twin] {
				twins = append(twins, dir+": "+twin+" beside "+fn.Name.Name)
			}
		}
	}
	sort.Strings(twins)
	for _, tw := range twins {
		t.Errorf("ℓ2 twin (call the root with a nil metric instead): %s", tw)
	}
}

// receiverOf returns "T." for a method on T or *T, and "" for a function.
func receiverOf(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "."
	}
	return "?."
}

// takesMetricFirst reports whether fn's first parameter is a Metric, spelled
// either inside package geom or as geom.Metric (or a facade alias) outside.
func takesMetricFirst(fn *ast.FuncDecl) bool {
	params := fn.Type.Params.List
	if len(params) == 0 {
		return false
	}
	switch typ := params[0].Type.(type) {
	case *ast.Ident:
		return typ.Name == "Metric"
	case *ast.SelectorExpr:
		return typ.Sel.Name == "Metric"
	}
	return false
}
