package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// SnapshotDrift proves the snapshot/restore contract structurally: for
// every struct with a snapshot-side method (Snapshot, MarshalBinary,
// AppendBinary, encode*, snapshot*, *Snapshot) each field must be touched by the
// snapshot call closure, touched by the restore call closure (Restore,
// UnmarshalBinary, restore*/decode*, plus package-level decode*/
// restore*/load*/unmarshal* constructors returning the type), or be
// explicitly annotated //state:derived or //state:transient. Structs
// reachable from a checked struct's fields or from the snapshot
// methods' result types — the carrier types a snapshot is encoded
// into — are held to the same standard, so dropping one encode line
// for a serialized field is a lint failure, not a latent
// crash-equivalence bug.
var SnapshotDrift = &Analyzer{
	Name: "snapshotdrift",
	Doc:  "struct fields must survive the Snapshot/Restore path or carry a //state: annotation",
	Run:  runSnapshotDrift,
}

// snapPair is one struct with snapshot-side (and possibly restore-side)
// entry points.
type snapPair struct {
	snap    []*ast.FuncDecl
	restore []*ast.FuncDecl
}

// driftEntry accumulates, per struct, the field uses of every pair
// whose closure can reach it. A struct reachable from several pairs
// (a shared carrier) passes if any reaching path serializes it.
type driftEntry struct {
	decl     *structDecl
	snapUsed map[*types.Var]bool
	restUsed map[*types.Var]bool
	twoSided bool
}

func isSnapSideName(name string) bool {
	return name == "Snapshot" || name == "MarshalBinary" || name == "AppendBinary" || name == "encode" ||
		strings.HasPrefix(name, "snapshot") || strings.HasPrefix(name, "encode") ||
		strings.HasSuffix(name, "Snapshot")
}

func isRestoreSideName(name string) bool {
	return name == "Restore" || name == "UnmarshalBinary" ||
		strings.HasPrefix(name, "restore") || strings.HasPrefix(name, "decode") ||
		strings.HasSuffix(name, "Restore")
}

func isRestoreFreeName(name string) bool {
	return strings.HasPrefix(name, "decode") || strings.HasPrefix(name, "restore") ||
		strings.HasPrefix(name, "load") || strings.HasPrefix(name, "unmarshal")
}

// recvTypeName resolves the named type a method declaration hangs off,
// or nil for free functions and unnamed receivers.
func recvTypeName(pkg *Package, fd *ast.FuncDecl) *types.TypeName {
	if fd.Recv == nil {
		return nil
	}
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if named, ok := derefType(recv.Type()).(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// resultStructs yields the named same-package structs a function
// returns (through pointers and slices), the carrier types a snapshot
// is encoded into.
func resultStructs(pkg *Package, fd *ast.FuncDecl, sidx map[*types.TypeName]*structDecl) []*types.TypeName {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	results := fn.Type().(*types.Signature).Results()
	var out []*types.TypeName
	for i := 0; i < results.Len(); i++ {
		t := results.At(i).Type()
		for {
			switch u := t.(type) {
			case *types.Pointer:
				t = u.Elem()
				continue
			case *types.Slice:
				t = u.Elem()
				continue
			}
			break
		}
		if named, ok := t.(*types.Named); ok && sidx[named.Obj()] != nil {
			out = append(out, named.Obj())
		}
	}
	return out
}

// fieldTypeStructs yields the named same-package structs embedded in a
// field type, unwrapping pointers, slices, arrays and maps. Interfaces
// and foreign packages end the walk: their contents are someone else's
// contract.
func fieldTypeStructs(t types.Type, sidx map[*types.TypeName]*structDecl, out map[*types.TypeName]bool) {
	switch u := t.(type) {
	case *types.Named:
		if sidx[u.Obj()] != nil {
			out[u.Obj()] = true
		}
		return
	case *types.Pointer:
		fieldTypeStructs(u.Elem(), sidx, out)
	case *types.Slice:
		fieldTypeStructs(u.Elem(), sidx, out)
	case *types.Array:
		fieldTypeStructs(u.Elem(), sidx, out)
	case *types.Map:
		fieldTypeStructs(u.Key(), sidx, out)
		fieldTypeStructs(u.Elem(), sidx, out)
	}
}

func runSnapshotDrift(pass *Pass) {
	pkg := pass.Pkg
	sidx := structIndex(pkg)
	if len(sidx) == 0 {
		return
	}
	ix := newFuncIndex(pkg)

	// Discover pairs: snapshot-side methods per struct, restore-side
	// methods per struct, and restore-side free constructors by result
	// type.
	pairs := make(map[*types.TypeName]*snapPair)
	pairFor := func(tn *types.TypeName) *snapPair {
		p := pairs[tn]
		if p == nil {
			p = &snapPair{}
			pairs[tn] = p
		}
		return p
	}
	for fn, fd := range ix.decls {
		name := fn.Name()
		if tn := recvTypeName(pkg, fd); tn != nil && sidx[tn] != nil {
			if isSnapSideName(name) {
				pairFor(tn).snap = append(pairFor(tn).snap, fd)
			}
			if isRestoreSideName(name) {
				pairFor(tn).restore = append(pairFor(tn).restore, fd)
			}
			continue
		}
		if fd.Recv == nil && isRestoreFreeName(name) {
			for _, tn := range resultStructs(pkg, fd, sidx) {
				pairFor(tn).restore = append(pairFor(tn).restore, fd)
			}
		}
	}

	entries := make(map[*types.TypeName]*driftEntry)
	entryFor := func(tn *types.TypeName) *driftEntry {
		e := entries[tn]
		if e == nil {
			e = &driftEntry{
				decl:     sidx[tn],
				snapUsed: make(map[*types.Var]bool),
				restUsed: make(map[*types.Var]bool),
			}
			entries[tn] = e
		}
		return e
	}

	for tn, pair := range pairs {
		if len(pair.snap) == 0 {
			continue // restore-side only: a constructor, not a snapshot contract
		}
		snapUsed := fieldUses(pkg, ix.closure(pair.snap))
		restUsed := fieldUses(pkg, ix.closure(pair.restore))

		// The struct set this pair vouches for: the owner plus every
		// same-package struct reachable from its non-annotated fields
		// and from the pair's result types — except structs with their
		// own snapshot contract, which answer for themselves.
		group := map[*types.TypeName]bool{tn: true}
		frontier := []*types.TypeName{tn}
		for _, fd := range append(append([]*ast.FuncDecl{}, pair.snap...), pair.restore...) {
			for _, res := range resultStructs(pkg, fd, sidx) {
				if !group[res] && (pairs[res] == nil || len(pairs[res].snap) == 0) {
					group[res] = true
					frontier = append(frontier, res)
				}
			}
		}
		for len(frontier) > 0 {
			cur := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			next := make(map[*types.TypeName]bool)
			for _, f := range sidx[cur].fields {
				if stateAnnotation(f.ast) != "" {
					continue // annotated out of the contract: don't descend
				}
				fieldTypeStructs(f.v.Type(), sidx, next)
			}
			for res := range next {
				if !group[res] && (pairs[res] == nil || len(pairs[res].snap) == 0) {
					group[res] = true
					frontier = append(frontier, res)
				}
			}
		}

		for member := range group {
			e := entryFor(member)
			for v := range snapUsed {
				e.snapUsed[v] = true
			}
			for v := range restUsed {
				e.restUsed[v] = true
			}
			if len(pair.restore) > 0 {
				e.twoSided = true
			}
		}
	}

	// Report in declared-name order; Run's global sort keys on position,
	// but a stable walk keeps map iteration out of the picture.
	names := make([]*types.TypeName, 0, len(entries))
	for tn := range entries {
		names = append(names, tn)
	}
	sort.Slice(names, func(i, j int) bool { return names[i].Name() < names[j].Name() })

	for _, tn := range names {
		e := entries[tn]
		for _, f := range e.decl.fields {
			if stateAnnotation(f.ast) != "" {
				continue
			}
			if lockPath(f.v.Type()) != "" {
				continue // sync primitives are never serialized
			}
			missSnap := !e.snapUsed[f.v]
			missRest := e.twoSided && !e.restUsed[f.v]
			qual := tn.Name() + "." + f.v.Name()
			switch {
			case missSnap && missRest:
				pass.Reportf(f.ast.Pos(), "field %s is neither read on the snapshot path nor rebuilt on restore; serialize it or annotate //state:derived or //state:transient", qual)
			case missSnap && e.twoSided:
				pass.Reportf(f.ast.Pos(), "field %s is rebuilt on restore but never read on the snapshot path; serialize it or annotate //state:derived or //state:transient", qual)
			case missSnap:
				pass.Reportf(f.ast.Pos(), "field %s is not captured by the snapshot path; capture it or annotate //state:transient", qual)
			case missRest:
				pass.Reportf(f.ast.Pos(), "field %s is serialized but never rebuilt on restore; decode it or annotate //state:derived or //state:transient", qual)
			}
		}
	}
}
