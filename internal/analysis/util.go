package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// pkgMatches reports whether importPath refers to one of the named
// repo packages. Names are path suffixes ("rtec", "internal/linalg"),
// so both the real module paths and the fixture paths used by the
// framework tests match.
func pkgMatches(importPath string, names []string) bool {
	for _, n := range names {
		if importPath == n || strings.HasSuffix(importPath, "/"+n) {
			return true
		}
	}
	return false
}

// calleeObj resolves the object a call expression invokes, looking
// through parentheses. It returns nil for calls through function
// values, type conversions and built-ins.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// isPkgCall reports whether call invokes the named function of the
// package with the given import path (e.g. "time", "Now").
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	obj := calleeObj(info, call)
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isBuiltin reports whether call invokes the named builtin (append,
// make, ...).
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// lockPath returns a description like "sync.Mutex" if t contains a
// lock by value (directly, via struct fields or arrays), or "".
func lockPath(t types.Type) string {
	return lockPathRec(t, make(map[types.Type]bool))
}

func lockPathRec(t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Cond", "Once", "Pool", "Map":
				return "sync." + obj.Name()
			}
		}
		return lockPathRec(named.Underlying(), seen)
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if p := lockPathRec(u.Field(i).Type(), seen); p != "" {
				return p
			}
		}
	case *types.Array:
		return lockPathRec(u.Elem(), seen)
	}
	return ""
}

// isFloat reports whether t's core type is a floating-point type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isChan reports whether t's underlying type is a channel.
func isChan(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isItemType reports whether t is a named map type called "Item" — the
// streams data item (or a fixture stand-in shaped like it).
func isItemType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if named.Obj().Name() != "Item" {
		return false
	}
	_, ok = named.Underlying().(*types.Map)
	return ok
}

// walkShallow visits the tree under n but does not descend into
// nested function literals — the scope boundary most analyzers here
// care about.
func walkShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if _, ok := c.(*ast.FuncLit); ok && c != n {
			return false
		}
		return fn(c)
	})
}

// declaredOutside reports whether the identifier's object is declared
// at a position outside [from, to) — i.e. it outlives that region.
func declaredOutside(info *types.Info, id *ast.Ident, from, to ast.Node) bool {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil || !obj.Pos().IsValid() {
		return false
	}
	return obj.Pos() < from.Pos() || obj.Pos() >= to.End()
}

// ---- cross-function field-accessor tracking ----
//
// The state-integrity analyzers (snapshotdrift, durorder) reason about
// what a *group* of functions touches: a Snapshot method plus every
// helper it calls, a checkpoint writer plus the fsync helpers it leans
// on. funcIndex resolves same-package call targets, closure computes
// the reachable declaration set, and fieldUses collects every struct
// field that set mentions — selector reads and writes, keyed
// composite-literal fields and positional literal fields alike.

// funcIndex indexes every function and method declared in one package.
type funcIndex struct {
	pkg    *Package
	decls  map[*types.Func]*ast.FuncDecl
	byName map[string][]*ast.FuncDecl // name → declarations (methods of any receiver)
}

func newFuncIndex(pkg *Package) *funcIndex {
	ix := &funcIndex{
		pkg:    pkg,
		decls:  make(map[*types.Func]*ast.FuncDecl),
		byName: make(map[string][]*ast.FuncDecl),
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				ix.decls[fn] = fd
				ix.byName[fd.Name.Name] = append(ix.byName[fd.Name.Name], fd)
			}
		}
	}
	return ix
}

// closure returns the declarations reachable from seeds through
// same-package calls, including the seeds themselves. A call through
// an interface method has no body here, so it is resolved by name:
// every package method with that name joins the closure — a deliberate
// superset, so no implementation behind a store/tier interface escapes
// the analysis.
func (ix *funcIndex) closure(seeds []*ast.FuncDecl) map[*ast.FuncDecl]bool {
	out := make(map[*ast.FuncDecl]bool)
	var work []*ast.FuncDecl
	add := func(fd *ast.FuncDecl) {
		if fd != nil && !out[fd] {
			out[fd] = true
			work = append(work, fd)
		}
	}
	for _, fd := range seeds {
		add(fd)
	}
	for len(work) > 0 {
		fd := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(fd, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := calleeObj(ix.pkg.Info, call).(*types.Func)
			if !ok {
				return true
			}
			if decl := ix.decls[fn]; decl != nil {
				add(decl)
				return true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				for _, cand := range ix.byName[fn.Name()] {
					add(cand)
				}
			}
			return true
		})
	}
	return out
}

// fieldUses records every struct field the declaration set mentions,
// keyed by the field's types.Var object. A struct value copied
// wholesale on the right-hand side of an assignment (out[k] = *h)
// carries every field with it, so all of them count as used; a
// *pointer* moved around does not — the carrier-struct pattern (build
// behind a pointer, write each field, return the pointer) must still
// account for every field individually.
func fieldUses(pkg *Package, decls map[*ast.FuncDecl]bool) map[*types.Var]bool {
	used := make(map[*types.Var]bool)
	for fd := range decls {
		ast.Inspect(fd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel := pkg.Info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
					if v, ok := sel.Obj().(*types.Var); ok {
						used[v] = true
					}
				}
			case *ast.CompositeLit:
				markCompositeFields(pkg, n, used)
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					if tv, ok := pkg.Info.Types[rhs]; ok {
						markWholeStruct(tv.Type, used, nil)
					}
				}
			}
			return true
		})
	}
	return used
}

// markWholeStruct marks every field of a named struct type (and of the
// structs it embeds by value) as used. Pointers, slices and maps end
// the walk: their pointees are shared, not copied.
func markWholeStruct(t types.Type, used map[*types.Var]bool, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	if _, isNamed := t.(*types.Named); !isNamed {
		if arr, ok := t.(*types.Array); ok {
			markWholeStruct(arr.Elem(), used, seen)
		}
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		used[f] = true
		markWholeStruct(f.Type(), used, seen)
	}
}

// markCompositeFields records the struct fields a composite literal
// initializes — by key for keyed literals, by position otherwise.
func markCompositeFields(pkg *Package, lit *ast.CompositeLit, used map[*types.Var]bool) {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return
	}
	st, ok := derefType(tv.Type).Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				if v, ok := pkg.Info.Uses[id].(*types.Var); ok && v.IsField() {
					used[v] = true
				}
			}
			continue
		}
		if i < st.NumFields() {
			used[st.Field(i)] = true
		}
	}
}

// derefType unwraps one level of pointer.
func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// structDecl carries one named struct's syntax: its fields in type
// order, each aligned with the ast.Field that declares it (the anchor
// for //state: annotations and diagnostic positions).
type structDecl struct {
	fields []structField
}

type structField struct {
	v   *types.Var
	ast *ast.Field
}

// structIndex maps every named struct type declared in the package to
// its field declarations.
func structIndex(pkg *Package) map[*types.TypeName]*structDecl {
	out := make(map[*types.TypeName]*structDecl)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				astStruct, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				d := &structDecl{}
				i := 0
				for _, af := range astStruct.Fields.List {
					n := len(af.Names)
					if n == 0 {
						n = 1 // embedded field declares exactly one
					}
					for k := 0; k < n && i < st.NumFields(); k++ {
						d.fields = append(d.fields, structField{v: st.Field(i), ast: af})
						i++
					}
				}
				out[obj] = d
			}
		}
	}
	return out
}

// stateAnnotation returns "derived", "transient" or "" for a field
// declaration. //state:derived marks a field rebuilt from other state
// after restore; //state:transient marks one that is meaningless
// across restarts. Either places the field deliberately outside the
// snapshot contract, with the justification text alongside.
func stateAnnotation(f *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			for _, kind := range []string{"derived", "transient"} {
				rest, ok := strings.CutPrefix(c.Text, "//state:"+kind)
				if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
					return kind
				}
			}
		}
	}
	return ""
}

// funcName renders a readable name for a function declaration,
// including the receiver type for methods.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	if ix, ok := recv.(*ast.IndexExpr); ok {
		if id, ok := ix.X.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}
