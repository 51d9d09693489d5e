package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// UnusedAPI holds the module to "exported means used by the product":
// an exported function, method, type, const or var of a non-main
// package must be referenced by some non-test file of the module
// outside its own declaration, and an exported struct field must be set
// by some non-test code — a keyed or positional composite literal, an
// assignment, or its address taken (&x.F, or a pointer-method call on
// it). A field nobody sets is a constant in disguise. Methods that
// satisfy an interface (of the module or of a package it imports) count
// as used, since the call goes through the interface; fields with a
// struct tag count as set, since a decoder sets them by reflection.
//
// The read side: a field of a non-main package, exported or not, that
// non-test code sets must also be read by non-test code, or it records
// a value nobody looks at. A read is a field selection anywhere but on
// the written path of an assignment's left side (x.F = v and x.F++ do
// not read F; x.P.F = v reads P when P is a pointer, x.M[k] = v reads
// the map M); a struct tag; == or != on the struct, or the struct as a
// map key (every field is compared); or being reachable through fields,
// pointers, slices, arrays and maps from the static type of a value
// handed to encoding/json (Marshal, MarshalIndent, Encoder.Encode) or
// to a template's Execute, whose exported fields the encoder reads by
// reflection (a json:"-" field is not followed).
//
// Test files are invisible to the loader, so an identifier only tests
// use, or a field only tests read, is reported. It is a module-wide
// rule: it reads every package of the Run through Pass.Module.
var UnusedAPI = &Analyzer{
	Name: "unusedapi",
	Doc:  "exported identifiers no non-test code uses, exported fields no non-test code sets, fields no non-test code reads",
	Run:  runUnusedAPI,
}

// apiUse is the module-wide fact set unusedapi judges each package by.
type apiUse struct {
	used map[types.Object]bool // referenced outside their own declaration, or needed by an interface
	set  map[*types.Var]bool   // fields written somewhere
	read map[*types.Var]bool   // fields read somewhere
}

func runUnusedAPI(pass *Pass) {
	pkg := pass.Pkg
	if pkg.Name == "main" {
		return
	}
	u := pass.Module.memo(pass.Analyzer.Name, func() any { return newAPIUse(pass.Module.Pkgs) }).(*apiUse)
	unused := func(id *ast.Ident, kind, name string) bool {
		obj := pkg.Info.Defs[id]
		if obj == nil || !obj.Exported() || u.used[obj] {
			return false
		}
		pass.Reportf(id.Pos(), "exported %s %s is used by no non-test code", kind, name)
		return true
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if recv := recvTypeName(pkg, d); recv != nil {
					unused(d.Name, "method", recv.Name()+"."+d.Name.Name)
				} else if d.Recv == nil {
					unused(d.Name, "func", d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !unused(s.Name, "type", s.Name.Name) {
							u.reportFields(pass, s)
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							unused(name, map[token.Token]string{token.CONST: "const", token.VAR: "var"}[d.Tok], name.Name)
						}
					}
				}
			}
		}
	}
}

// reportFields reports the named, untagged fields of every struct type
// inside one type declaration that no code sets (exported ones) or
// that code sets and no code reads.
func (u *apiUse) reportFields(pass *Pass, s *ast.TypeSpec) {
	ast.Inspect(s.Type, func(n ast.Node) bool {
		if st, ok := n.(*ast.StructType); ok {
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					v, ok := pass.Pkg.Info.Defs[name].(*types.Var)
					switch {
					case !ok || field.Tag != nil:
					case v.Exported() && !u.set[v]:
						pass.Reportf(name.Pos(), "exported field %s.%s is set by no non-test code", s.Name.Name, v.Name())
					case u.set[v] && !u.read[v]:
						pass.Reportf(name.Pos(), "field %s.%s is set but read by no non-test code", s.Name.Name, v.Name())
					}
				}
			}
		}
		return true
	})
}

// newAPIUse indexes every reference, field write, field read and
// interface satisfaction in the module's non-test files.
func newAPIUse(pkgs []*Package) *apiUse {
	u := &apiUse{used: make(map[types.Object]bool), set: make(map[*types.Var]bool), read: make(map[*types.Var]bool)}
	inModule := make(map[*types.Package]bool, len(pkgs))
	for _, pkg := range pkgs {
		inModule[pkg.Types] = true
	}
	for _, pkg := range pkgs {
		// A use inside the object's own declaration (recursion, a field
		// of its own type) or naming a method receiver is not a use.
		own := make(map[types.Object]ast.Node)
		skip := make(map[*ast.Ident]bool)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					own[pkg.Info.Defs[d.Name]] = d
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								skip[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							own[pkg.Info.Defs[s.Name]] = s
						case *ast.ValueSpec:
							for _, name := range s.Names {
								own[pkg.Info.Defs[name]] = s
							}
						}
					}
				}
			}
		}
		for id, obj := range pkg.Info.Uses {
			obj = originOf(obj)
			decl := own[obj]
			if obj.Pkg() != nil && inModule[obj.Pkg()] && !skip[id] && (decl == nil || id.Pos() < decl.Pos() || id.Pos() >= decl.End()) {
				u.used[obj] = true
			}
		}
		// The selectors an assignment writes through; the inspection
		// meets the statement before its operands, so they are known
		// by the time their SelectorExpr is visited.
		assigned := make(map[*ast.SelectorExpr]bool)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					lit := make(map[*types.Var]bool)
					markCompositeFields(pkg, n, lit)
					for v := range lit {
						u.set[v.Origin()] = true
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							u.markWritten(pkg, lhs, assigned)
						}
					}
				case *ast.IncDecStmt:
					u.markWritten(pkg, n.X, assigned)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						u.markWritten(pkg, n.Key, assigned)
						u.markWritten(pkg, n.Value, assigned)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						u.markWritten(pkg, n.X, nil)
					}
				case *ast.SelectorExpr:
					sel := pkg.Info.Selections[n]
					switch {
					case sel == nil:
					case sel.Kind() == types.FieldVal:
						if !assigned[n] {
							u.read[sel.Obj().(*types.Var).Origin()] = true
						}
					case sel.Kind() == types.MethodVal:
						// x.F.M() with a pointer receiver takes &x.F.
						_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
						if _, ptr := pkg.Info.TypeOf(n.X).Underlying().(*types.Pointer); ptrRecv && !ptr {
							u.markWritten(pkg, n.X, nil)
						}
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						u.markCompared(pkg.Info.TypeOf(n.X))
					}
				case *ast.MapType:
					u.markCompared(pkg.Info.TypeOf(n.Key))
				case *ast.CallExpr:
					if arg := encodedArg(pkg, n); arg != nil {
						u.markEncoded(pkg.Info.TypeOf(arg), make(map[types.Type]bool))
					}
				case *ast.Field:
					if n.Tag != nil {
						for _, name := range n.Names {
							if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
								u.read[v] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	u.markInterfaceMethods(pkgs)
	return u
}

// markCompared records as read every field == or a map's key hash
// compares on a value of type t: all fields of a struct, through nested
// struct and array fields (a pointer compares by address).
func (u *apiUse) markCompared(t types.Type) {
	switch t := t.Underlying().(type) {
	case *types.Array:
		u.markCompared(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			u.read[t.Field(i).Origin()] = true
			u.markCompared(t.Field(i).Type())
		}
	}
}

// encoders maps each function that reads a value's exported fields by
// reflection to the index of that value among its arguments.
var encoders = map[string]int{
	"encoding/json.Marshal":             0,
	"encoding/json.MarshalIndent":       0,
	"(*encoding/json.Encoder).Encode":   0,
	"(*text/template.Template).Execute": 1,
	"(*html/template.Template).Execute": 1,
}

// encodedArg returns the argument of call an encoder reads by
// reflection, or nil when call is no encoder call.
func encodedArg(pkg *Package, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	if i, ok := encoders[fn.FullName()]; ok && i < len(call.Args) {
		return call.Args[i]
	}
	return nil
}

// markEncoded records as read every field an encoder reaches from a
// value of type t: the exported and embedded fields of each struct on
// the way, through pointers, slices, arrays and maps.
func (u *apiUse) markEncoded(t types.Type, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch t := t.Underlying().(type) {
	case *types.Pointer:
		u.markEncoded(t.Elem(), seen)
	case *types.Slice:
		u.markEncoded(t.Elem(), seen)
	case *types.Array:
		u.markEncoded(t.Elem(), seen)
	case *types.Map:
		u.markEncoded(t.Key(), seen)
		u.markEncoded(t.Elem(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i)
			if (f.Exported() || f.Embedded()) && reflect.StructTag(t.Tag(i)).Get("json") != "-" {
				u.read[f.Origin()] = true
				u.markEncoded(f.Type(), seen)
			}
		}
	}
}

// originOf maps an instantiated generic function or field back to its
// declaration.
func originOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// markWritten records the fields an assignable expression writes:
// x.F, x.F.G and x.A[i] write F (and G, A) as long as no pointer is
// followed on the way down. When assigned is non-nil the expression is
// an assignment's target, and the selectors written through go into it:
// they are not reads.
func (u *apiUse) markWritten(pkg *Package, e ast.Expr, assigned map[*ast.SelectorExpr]bool) {
	for e != nil {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel := pkg.Info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			u.set[sel.Obj().(*types.Var).Origin()] = true
			if assigned != nil {
				assigned[x] = true
			}
			if _, ptr := pkg.Info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
				return
			}
			e = x.X
		case *ast.IndexExpr:
			if _, arr := pkg.Info.TypeOf(x.X).Underlying().(*types.Array); !arr {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// errorsProtocol names the methods the errors package calls on a
// wrapped error through unnamed interfaces no exported type spells.
var errorsProtocol = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// markInterfaceMethods marks used every method a named type of the
// module needs to satisfy an interface: one declared or spelled out in
// the module, one exported by a package the module imports, error, or
// the errors package's protocol.
func (u *apiUse) markInterfaceMethods(pkgs []*Package) {
	byMethod := make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	addIfc := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !seen[it] {
			seen[it] = true
			for i := 0; i < it.NumMethods(); i++ {
				byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
			}
		}
	}
	errIfc := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	addIfc(errIfc)
	var named []*types.Named
	imported := make(map[*types.Package]bool)
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				addIfc(tv.Type)
			}
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIfc(tn.Type())
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
		for _, imp := range pkg.Types.Imports() {
			imported[imp] = true
		}
	}
	for imp := range imported {
		for _, name := range imp.Scope().Names() {
			if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				addIfc(tn.Type())
			}
		}
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		isErr := types.Implements(ptr, errIfc)
		for i := 0; i < mset.Len(); i++ {
			m := mset.At(i).Obj().(*types.Func)
			needed := isErr && errorsProtocol[m.Name()]
			for _, it := range byMethod[m.Name()] {
				needed = needed || types.Implements(ptr, it)
			}
			if needed {
				u.used[m.Origin()] = true
			}
		}
	}
}
