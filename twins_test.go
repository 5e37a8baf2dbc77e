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

// TestKnowledgeIsRobotIDs keeps a team's knowledge as robot ids. A sleeping
// robot never leaves its initial position, so what a sweep, a DFSampling run
// or an ASeparator round learns is which robots exist, and the engine's
// robot record already holds where each one is. Non-test code of the
// packages that hold such knowledge must not key or fill a map with
// geom.Point: such a map copies positions the engine has, and a map keyed
// by position picks between robots that share one in map order. Nor may it
// key a map by robot id: a set of robots is an ascending id list, and which
// region a robot belongs to is that region's admit predicate applied to
// Robot(id).InitPos().
func TestKnowledgeIsRobotIDs(t *testing.T) {
	var found []string
	for _, dir := range []string{"internal/explore", "internal/sampling", "internal/dftp"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("%s: no Go files", dir)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				m, ok := n.(*ast.MapType)
				if !ok {
					return true
				}
				at := fset.Position(m.Pos()).String()
				switch {
				case isGeomPoint(m.Key) || isGeomPoint(m.Value):
					found = append(found, "map over geom.Point (keep robot ids and read Robot(id).InitPos()): "+at)
				case isInt(m.Key):
					found = append(found, "map keyed by robot id (keep an ascending id list, or apply the region's admit to Robot(id).InitPos()): "+at)
				}
				return true
			})
		}
	}
	for _, msg := range found {
		t.Error(msg)
	}
}

// isInt reports whether typ spells int, the type of a robot id.
func isInt(typ ast.Expr) bool {
	id, ok := typ.(*ast.Ident)
	return ok && id.Name == "int"
}

// isGeomPoint reports whether typ spells geom.Point.
func isGeomPoint(typ ast.Expr) bool {
	sel, ok := typ.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Point" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "geom"
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
