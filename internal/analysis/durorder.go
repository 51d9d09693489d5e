package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// DurOrder checks the durability ordering the WAL and checkpoint
// machinery promise: a file is synced before it is renamed into place,
// the directory is synced after the rename (so the new name survives a
// crash), and in code that appends to the log, nothing is forwarded
// downstream before the append — the consumed-implies-durable
// invariant the crash-equivalence gate replays. The scan is linear per
// function over write/sync/rename/append/forward events — os calls or
// the same calls through a filesystem seam (fs.Rename, fs.SyncDir) — with calls
// into same-package helpers resolved through the call closure (a call
// to a helper that fsyncs counts as a sync at the call site).
var DurOrder = &Analyzer{
	Name: "durorder",
	Doc:  "rename-before-sync, missing dir-sync and forward-before-append in durable-path code",
	Run:  runDurOrder,
}

// durOrderFiles are the root-package durable-path files; the streams/wal
// package is in scope as a whole.
var durOrderFiles = map[string]bool{
	"checkpoint.go":       true,
	"pipeline_durable.go": true,
}

const (
	doWrite = iota
	doSync
	doRename
	doAppend
	doForward
)

type doEvent struct {
	pos  token.Pos
	kind int
}

func runDurOrder(pass *Pass) {
	pkg := pass.Pkg
	wholePkg := pkgMatches(pkg.Path, []string{"wal"})

	ix := newFuncIndex(pkg)
	inScope := func(fd *ast.FuncDecl) bool {
		if wholePkg {
			return true
		}
		return durOrderFiles[filepath.Base(pkg.Fset.Position(fd.Pos()).Filename)]
	}

	// Effect summaries: does a same-package function's closure write or
	// sync? A call to it then carries those effects to the call site.
	writes := make(map[*ast.FuncDecl]bool)
	syncs := make(map[*ast.FuncDecl]bool)
	var all []*ast.FuncDecl
	for _, fd := range ix.decls {
		all = append(all, fd)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Pos() < all[j].Pos() })
	for _, fd := range all {
		for member := range ix.closure([]*ast.FuncDecl{fd}) {
			ast.Inspect(member.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch directCallName(pkg, call) {
				case "Write", "WriteAt", "WriteString", "Truncate":
					writes[fd] = true
				case "Sync":
					syncs[fd] = true
				}
				return true
			})
		}
	}

	for _, fd := range all {
		if !inScope(fd) {
			continue
		}
		var events []doEvent
		walkShallow(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				events = append(events, doEvent{pos: n.Pos(), kind: doForward})
			case *ast.CallExpr:
				events = append(events, callEvents(pkg, ix, n, writes, syncs)...)
			}
			return true
		})
		if len(events) == 0 {
			continue
		}
		sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

		dirty := false
		lastRename := token.NoPos
		lastRenameDirty := false
		syncedAfterRename := true
		firstAppend := token.NoPos
		var forwards []token.Pos
		for _, ev := range events {
			switch ev.kind {
			case doWrite:
				dirty = true
			case doSync:
				dirty = false
				syncedAfterRename = true
			case doRename:
				lastRename = ev.pos
				lastRenameDirty = dirty
				syncedAfterRename = false
			case doAppend:
				if !firstAppend.IsValid() {
					firstAppend = ev.pos
				}
			case doForward:
				forwards = append(forwards, ev.pos)
			}
		}
		if lastRenameDirty {
			pass.Reportf(lastRename, "os.Rename after unsynced writes in %s; fsync the file before renaming it into place", funcName(fd))
		}
		if lastRename.IsValid() && !syncedAfterRename {
			pass.Reportf(lastRename, "no sync after the final os.Rename in %s; fsync the directory so the new name survives a crash", funcName(fd))
		}
		if firstAppend.IsValid() {
			for _, fpos := range forwards {
				if fpos < firstAppend {
					pass.Reportf(fpos, "item forwarded before the WAL append in %s; consumed records must be durable first (append, then forward)", funcName(fd))
				}
			}
		}
	}
}

// directCallName names a method call (receiver.Name(...)); package
// selectors (os.Rename) and plain identifiers return "".
func directCallName(pkg *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
			return ""
		}
	}
	return sel.Sel.Name
}

// callEvents classifies one call expression into durability events.
func callEvents(pkg *Package, ix *funcIndex, call *ast.CallExpr, writes, syncs map[*ast.FuncDecl]bool) []doEvent {
	if isPkgCall(pkg.Info, call, "os", "Rename") {
		return []doEvent{{pos: call.Pos(), kind: doRename}}
	}
	var events []doEvent
	switch directCallName(pkg, call) {
	case "Write", "WriteAt", "WriteString", "Truncate":
		events = append(events, doEvent{pos: call.Pos(), kind: doWrite})
	case "Sync", "SyncDir":
		events = append(events, doEvent{pos: call.Pos(), kind: doSync})
	case "Rename": // a filesystem seam's (internal/vfs) rename
		events = append(events, doEvent{pos: call.Pos(), kind: doRename})
	case "Append":
		events = append(events, doEvent{pos: call.Pos(), kind: doAppend})
	case "Emit", "Forward", "Publish", "Push":
		events = append(events, doEvent{pos: call.Pos(), kind: doForward})
	}
	// A call into a same-package helper carries the helper's effects:
	// writes land before syncs so a write-and-sync helper leaves the
	// file clean.
	if fn, ok := calleeObj(pkg.Info, call).(*types.Func); ok {
		if decl := ix.decls[fn]; decl != nil {
			if writes[decl] {
				events = append(events, doEvent{pos: call.Pos(), kind: doWrite})
			}
			if syncs[decl] {
				events = append(events, doEvent{pos: call.Pos() + 1, kind: doSync})
			}
		}
	}
	return events
}
