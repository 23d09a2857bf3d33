package cdpu

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// optionStructs are the option budget: every exported field of these structs
// is a value tests and benchmarks must cover, so each must be set by some
// caller that is not a test. Keys are import paths.
var optionStructs = map[string][]string{
	"cdpu/internal/sim":      {"Config"},
	"cdpu/internal/resil":    {"Policy"},
	"cdpu/internal/cluster":  {"FailoverPolicy"},
	"cdpu/internal/traffic":  {"Pattern", "Tenants", "SLO", "Autoscale", "BurnConfig"},
	"cdpu/internal/des":      {"Shared"},
	"cdpu/internal/fault":    {"Storm", "Lifecycle"},
	"cdpu/internal/hcbench":  {"Spec"},
	"cdpu/internal/chain":    {"Config"},
	"cdpu/internal/core":     {"Config"},
	"cdpu/internal/zstdlite": {"Params"},
	"cdpu/internal/snappy":   {"EncoderConfig"},
	"cdpu/internal/lz77":     {"Config"},
	"cdpu/internal/exp":      {"Config"},
}

// optionAllow lists fields no caller sets that stay anyway, with the reason.
var optionAllow = map[string]string{
	"cdpu/internal/sim.Config.EpochCycles":     "bench/ reads it when it builds its des.Engine probe",
	"cdpu/internal/core.Config.WatchdogFactor": "core/testdata/result_golden.txt pins a tight-factor variant",
}

// guardFile is one parsed non-test source file.
type guardFile struct {
	path    string            // file path from the module root
	pkg     string            // import path of the file's package
	imports map[string]string // local package name -> import path
	ast     *ast.File
}

// optionGuard resolves just enough types, from syntax alone, to attribute a
// composite-literal key or an assignment target to the struct it belongs to.
type optionGuard struct {
	structs map[string]map[string]ast.Expr // "path.Type" -> field -> type expression
	funcs   map[string]ast.Expr            // "path.Func" -> type expression of its first result
	home    map[string]*guardFile          // "path.Type" or "path.Func" -> declaring file (resolves its type expressions)
	set     map[string]map[string]bool     // "path.Type.Field" seen as a key or assignment target -> the files it was seen in
}

// setBy returns the files that set key, sorted, and how many of them are
// callers in their own right: examples/ restates the experiments behind flags
// and bench/ keeps frozen copies of them, so neither makes a second caller.
func (g *optionGuard) setBy(key string) (files []string, callers int) {
	for file := range g.set[key] {
		files = append(files, file)
		if !strings.HasPrefix(file, "examples/") && !strings.HasPrefix(file, "bench/") {
			callers++
		}
	}
	sort.Strings(files)
	return files, callers
}

// mark records key as set by f, unless f belongs to the package that declares
// the struct: a package's own defaults (withDefaults, DefaultConfig, a preset
// constructor) restate one value and are no caller.
func (g *optionGuard) mark(f *guardFile, key string) {
	if strings.HasPrefix(key, f.pkg+".") && strings.Count(key[len(f.pkg)+1:], ".") == 1 {
		return
	}
	if g.set[key] == nil {
		g.set[key] = map[string]bool{}
	}
	g.set[key][f.path] = true
}

// typeOf resolves a type expression written in f to "path.Type", or "" when it
// is not a named struct of this module. Pointers are transparent.
func (g *optionGuard) typeOf(f *guardFile, e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return g.typeOf(f, t.X)
	case *ast.ParenExpr:
		return g.typeOf(f, t.X)
	case *ast.Ident:
		if name := f.pkg + "." + t.Name; g.structs[name] != nil {
			return name
		}
	case *ast.SelectorExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			if name := f.imports[id.Name] + "." + t.Sel.Name; g.structs[name] != nil {
				return name
			}
		}
	}
	return ""
}

// elemOf returns the element type expression of a slice, array or map type.
func elemOf(e ast.Expr) ast.Expr {
	switch t := e.(type) {
	case *ast.ArrayType:
		return t.Elt
	case *ast.MapType:
		return t.Value
	}
	return nil
}

// exprType resolves the static type of a value expression: a known local, a
// field selection on one, a composite literal or its address, or a call of a
// package-level function. known reports whether the answer is certain; an
// unknown expression makes the caller fall back to matching the field name
// against every option struct.
func (g *optionGuard) exprType(f *guardFile, vars map[string]string, e ast.Expr) (typ string, known bool) {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return g.exprType(f, vars, v.X)
	case *ast.StarExpr:
		return g.exprType(f, vars, v.X)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return g.exprType(f, vars, v.X)
		}
	case *ast.CompositeLit:
		if v.Type != nil {
			return g.typeOf(f, v.Type), true
		}
	case *ast.Ident:
		t, ok := vars[v.Name]
		return t, ok
	case *ast.CallExpr:
		name := ""
		switch fn := v.Fun.(type) {
		case *ast.Ident:
			name = f.pkg + "." + fn.Name
		case *ast.SelectorExpr:
			if id, ok := fn.X.(*ast.Ident); ok && f.imports[id.Name] != "" {
				name = f.imports[id.Name] + "." + fn.Sel.Name
			}
		}
		if res := g.funcs[name]; res != nil {
			return g.typeOf(g.home[name], res), true
		}
	case *ast.SelectorExpr:
		if id, ok := v.X.(*ast.Ident); ok && f.imports[id.Name] != "" && vars[id.Name] == "" {
			return "", false // pkg.Var
		}
		outer, ok := g.exprType(f, vars, v.X)
		if !ok {
			return "", false
		}
		if ft := g.structs[outer][v.Sel.Name]; ft != nil {
			return g.typeOf(g.home[outer], ft), true
		}
		return "", outer != ""
	}
	return "", false
}

// markLit records the keys of one composite literal of type typ and descends
// into elements whose own type is elided.
func (g *optionGuard) markLit(f *guardFile, lit *ast.CompositeLit, typExpr ast.Expr) {
	if typExpr == nil {
		return
	}
	typ, elem := g.typeOf(f, typExpr), elemOf(typExpr)
	for _, el := range lit.Elts {
		val := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			val = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok && typ != "" {
				g.mark(f, typ+"."+id.Name)
			}
		}
		if inner, ok := val.(*ast.CompositeLit); ok && inner.Type == nil {
			g.markLit(f, inner, elem)
		}
	}
}

// markAssign records x.Field as set. With x's type unknown, every option
// struct that has a field of that name counts as set: the guard may miss a
// dead field this way, but it never reports a live one.
func (g *optionGuard) markAssign(f *guardFile, vars map[string]string, lhs ast.Expr) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if typ, known := g.exprType(f, vars, sel.X); known {
		g.mark(f, typ+"."+sel.Sel.Name)
		return
	}
	for name, fields := range g.structs {
		if fields[sel.Sel.Name] != nil {
			g.mark(f, name+"."+sel.Sel.Name)
		}
	}
}

// declare binds names to the type a declaration gives them.
func (g *optionGuard) declare(f *guardFile, vars map[string]string, names []*ast.Ident, typ ast.Expr, values []ast.Expr) {
	for i, n := range names {
		switch {
		case typ != nil:
			vars[n.Name] = g.typeOf(f, typ)
		case len(values) == len(names):
			if t, known := g.exprType(f, vars, values[i]); known {
				vars[n.Name] = t
			} else {
				delete(vars, n.Name)
			}
		default:
			delete(vars, n.Name)
		}
	}
}

func (g *optionGuard) fields(f *guardFile, vars map[string]string, list *ast.FieldList) {
	if list == nil {
		return
	}
	for _, fld := range list.List {
		g.declare(f, vars, fld.Names, fld.Type, nil)
	}
}

// walk scans one file. Locals live in one flat map per top-level declaration,
// in source order; shadowing is rare enough here that scopes are not modeled.
func (g *optionGuard) walk(f *guardFile, pkgVars map[string]string) {
	for _, decl := range f.ast.Decls {
		vars := make(map[string]string, len(pkgVars))
		for k, v := range pkgVars {
			vars[k] = v
		}
		if fd, ok := decl.(*ast.FuncDecl); ok {
			g.fields(f, vars, fd.Recv)
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncType:
				g.fields(f, vars, v.Params)
				g.fields(f, vars, v.Results)
			case *ast.ValueSpec:
				g.declare(f, vars, v.Names, v.Type, v.Values)
			case *ast.RangeStmt:
				for _, e := range []ast.Expr{v.Key, v.Value} {
					if id, ok := e.(*ast.Ident); ok && v.Tok == token.DEFINE {
						delete(vars, id.Name)
					}
				}
			case *ast.AssignStmt:
				if v.Tok == token.DEFINE {
					var names []*ast.Ident
					for _, l := range v.Lhs {
						if id, ok := l.(*ast.Ident); ok {
							names = append(names, id)
						}
					}
					if len(names) == len(v.Lhs) {
						g.declare(f, vars, names, nil, v.Rhs)
					}
					break
				}
				for _, l := range v.Lhs {
					g.markAssign(f, vars, l)
				}
			case *ast.IncDecStmt:
				g.markAssign(f, vars, v.X)
			case *ast.CompositeLit:
				g.markLit(f, v, v.Type)
			}
			return true
		})
	}
}

// budget counts the settable values: the exported fields of every option
// struct and of every module struct a field of one holds, directly or as an
// element, so a nested config (core.Config's memory system once) counts value
// by value.
func (g *optionGuard) budget() (fields, structs int) {
	seen := map[string]bool{}
	var queue []string
	for path, names := range optionStructs {
		for _, name := range names {
			queue = append(queue, path+"."+name)
		}
	}
	for len(queue) > 0 {
		typ := queue[0]
		queue = queue[1:]
		if seen[typ] || g.structs[typ] == nil {
			continue
		}
		seen[typ] = true
		for field, expr := range g.structs[typ] {
			if !ast.IsExported(field) {
				continue
			}
			fields++
			for e := expr; e != nil; e = elemOf(e) {
				if inner := g.typeOf(g.home[typ], e); inner != "" {
					queue = append(queue, inner)
				}
			}
		}
	}
	return fields, len(seen)
}

// loadSources parses every non-test Go file under root into guardFiles keyed
// by package import path.
func loadSources(t *testing.T, root, module string) map[string][]*guardFile {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string][]*guardFile{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		af, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		gf := &guardFile{path: filepath.ToSlash(path), pkg: module, imports: map[string]string{}, ast: af}
		if rel != "." {
			gf.pkg = module + "/" + filepath.ToSlash(rel)
		}
		for _, imp := range af.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			gf.imports[name] = p
		}
		pkgs[gf.pkg] = append(pkgs[gf.pkg], gf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestEveryOptionHasACaller fails, naming the field, when an exported field
// of an options struct is never a composite-literal key or an assignment
// target outside _test.go: with one value in use the field is a constant, and
// keeping it as an option only widens what the tests must cover. It also logs
// (go test -v) the single-caller fields and the files that set them, marking
// the ones only examples/ sets: under the option rule an example, like a test,
// is not a caller, so those are constants in waiting.
func TestEveryOptionHasACaller(t *testing.T) {
	pkgs := loadSources(t, ".", "cdpu")
	g := &optionGuard{
		structs: map[string]map[string]ast.Expr{},
		funcs:   map[string]ast.Expr{},
		home:    map[string]*guardFile{},
		set:     map[string]map[string]bool{},
	}
	for path, files := range pkgs {
		for _, f := range files {
			for _, decl := range f.ast.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Type.Results != nil {
					g.funcs[path+"."+fd.Name.Name] = fd.Type.Results.List[0].Type
					g.home[path+"."+fd.Name.Name] = f
				}
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					fields := map[string]ast.Expr{}
					for _, fld := range st.Fields.List {
						for _, n := range fld.Names {
							fields[n.Name] = fld.Type
						}
					}
					g.structs[path+"."+ts.Name.Name] = fields
					g.home[path+"."+ts.Name.Name] = f
				}
			}
		}
	}
	for _, files := range pkgs {
		pkgVars := map[string]string{}
		for _, f := range files {
			for _, decl := range f.ast.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					for _, spec := range gd.Specs {
						vs := spec.(*ast.ValueSpec)
						g.declare(f, pkgVars, vs.Names, vs.Type, vs.Values)
					}
				}
			}
		}
		for _, f := range files {
			g.walk(f, pkgVars)
		}
	}

	var dead, single []string
	for path, names := range optionStructs {
		for _, name := range names {
			fields := g.structs[path+"."+name]
			if fields == nil {
				t.Errorf("options struct %s.%s not found", path, name)
			}
			for field := range fields {
				key := path + "." + name + "." + field
				if !ast.IsExported(field) {
					continue
				}
				files, callers := g.setBy(key)
				switch {
				case len(files) == 0 && optionAllow[key] == "":
					dead = append(dead, key)
				case len(files) > 0 && callers <= 1:
					line := key + " <- " + strings.Join(files, ", ")
					if strings.HasPrefix(files[0], "examples/") && strings.HasPrefix(files[len(files)-1], "examples/") {
						// files is sorted, so every setter is an example.
						line += "  (examples/ only: the option rule counts tests and examples as no caller; reported, not failed)"
					}
					single = append(single, line)
				}
			}
		}
	}
	budget, structs := g.budget()
	t.Logf("option budget: %d settable fields across %d structs", budget, structs)
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is set by no caller outside _test.go: make it a constant, or give it a caller", key)
	}
	// Informational, never a failure: a knob only one file sets is the next
	// candidate for a constant, or for composition from the knobs beside it.
	sort.Strings(single)
	t.Logf("%d option fields have at most one caller outside examples/ and bench/:\n\t%s", len(single), strings.Join(single, "\n\t"))
	for key := range optionAllow {
		if len(g.set[key]) > 0 {
			t.Errorf("%s now has a caller: drop it from optionAllow", key)
		}
	}
}
