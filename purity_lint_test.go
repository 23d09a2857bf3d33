package cdpu

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// purityAllow lists map-ranging loops the purity lint flags that stay anyway,
// keyed "file:function", with the reason their order does not reach a result.
var purityAllow = map[string]string{}

// sortFuncs are the sort and slices functions that order a slice in place.
var sortFuncs = map[string]bool{
	"sort.Sort": true, "sort.Stable": true, "sort.Slice": true, "sort.SliceStable": true,
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// outputMethods are the method names that emit output: io.Writer-style
// writers, and exp.Table's row append, whose order is the printed order.
var outputMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true, "AddRow": true,
}

// purityLint finds, in the type-checked files of one package, every range
// over a map whose body depends on the iteration order: it accumulates into a
// float or string that is not an element of a map (x += v sums in a
// different order every run, where m[k] += v touches each element alone),
// appends to a slice that the function does not sort after the loop, or
// writes output.
type purityLint struct {
	fset  *token.FileSet
	info  *types.Info
	found map[string][]string // "file:function" -> what each flagged loop does
}

func (l *purityLint) typeOf(e ast.Expr) types.Type {
	if tv, ok := l.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// orderedAccumulator reports whether t is a float or a string: a sum or a
// concatenation of those depends on the order of its operands.
func orderedAccumulator(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsString) != 0
}

// isMapIndex reports whether e is an element of a map, m[k].
func (l *purityLint) isMapIndex(e ast.Expr) bool {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := l.typeOf(ix.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// pkgFunc returns the import path and name of a call of a package-level
// function, or "" when the call is anything else.
func (l *purityLint) pkgFunc(call *ast.CallExpr) (path, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := l.info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// writesOutput reports whether call prints or writes.
func (l *purityLint) writesOutput(call *ast.CallExpr) bool {
	switch path, name := l.pkgFunc(call); path {
	case "fmt":
		return strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")
	case "log":
		return true
	case "":
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && outputMethods[sel.Sel.Name]
	}
	return false
}

// sortedAfter reports whether body sorts the slice named slice anywhere past
// pos: a sortFuncs call that mentions it among its arguments.
func (l *purityLint) sortedAfter(body *ast.BlockStmt, pos token.Pos, slice string) bool {
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if sorted || !ok || call.Pos() < pos {
			return !sorted
		}
		if path, name := l.pkgFunc(call); sortFuncs[path+"."+name] {
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if e, ok := m.(ast.Expr); ok && types.ExprString(e) == slice {
						sorted = true
					}
					return !sorted
				})
			}
		}
		return true
	})
	return sorted
}

// checkRange records what an order-dependent body of one map range does.
func (l *purityLint) checkRange(key string, fn *ast.BlockStmt, rs *ast.RangeStmt) {
	var what []string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				if l.isMapIndex(lhs) {
					continue
				}
				t := l.typeOf(lhs)
				switch {
				case v.Tok != token.ASSIGN && v.Tok != token.DEFINE && t != nil && orderedAccumulator(t):
					what = append(what, "accumulates into "+types.ExprString(lhs))
				case v.Tok == token.ASSIGN && len(v.Rhs) == len(v.Lhs):
					call, ok := v.Rhs[i].(*ast.CallExpr)
					if !ok || len(call.Args) == 0 {
						break
					}
					if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" || l.info.Uses[id] != types.Universe.Lookup("append") {
						break
					}
					if slice := types.ExprString(lhs); !l.sortedAfter(fn, rs.End(), slice) {
						what = append(what, "appends to "+slice+", unsorted after the loop")
					}
				}
			}
		case *ast.CallExpr:
			if l.writesOutput(v) {
				what = append(what, "writes output ("+types.ExprString(v.Fun)+")")
			}
		}
		return true
	})
	if len(what) > 0 {
		l.found[key] = append(l.found[key], l.fset.Position(rs.Pos()).String()+": "+strings.Join(what, "; "))
	}
}

// checkFile lints every function declared in f.
func (l *purityLint) checkFile(path string, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			name = types.ExprString(fd.Recv.List[0].Type) + "." + name
		}
		key := filepath.ToSlash(path) + ":" + name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				if t := l.typeOf(rs.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						l.checkRange(key, fd.Body, rs)
					}
				}
			}
			return true
		})
	}
}

// TestMapRangesArePure is the purity lint: no non-test code under internal/
// may let a map's iteration order reach a result. Go randomizes that order on
// every range, so a float summed, a slice built or a line written in it can
// differ between two runs of the same Config. The goldens catch this only when
// the difference survives their rounding.
func TestMapRangesArePure(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	l := &purityLint{fset: fset, found: map[string][]string{}}
	err := filepath.WalkDir("internal", func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return err
		}
		var files []*ast.File
		var names []string
		for _, p := range paths {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, p, nil, 0)
			if err != nil {
				return err
			}
			files, names = append(files, f), append(names, p)
		}
		if len(files) == 0 {
			return nil
		}
		l.info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check("cdpu/"+filepath.ToSlash(dir), fset, files, l.info); err != nil {
			return err
		}
		for i, f := range files {
			l.checkFile(names[i], f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for key := range l.found {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if purityAllow[key] == "" {
			t.Errorf("%s ranges over a map and depends on its order: range over a sorted key list or a fixed order instead\n\t%s", key, strings.Join(l.found[key], "\n\t"))
		}
	}
	for key := range purityAllow {
		if l.found[key] == nil {
			t.Errorf("%s is no longer flagged: drop it from purityAllow", key)
		}
	}
}
