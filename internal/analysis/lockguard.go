package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockGuard infers which struct fields a mutex guards and flags the
// accesses that escape it. For every struct holding a sync.Mutex or
// sync.RWMutex, each method's receiver-rooted field accesses are
// replayed against the Lock/Unlock windows in that method (a deferred
// unlock holds to the end; methods named *Locked are assumed to run
// under the caller's lock). A field counts as guarded when lock-held
// accesses form a strict majority with at least two guarded sites; the
// minority accesses outside the lock are then reported. The inference
// complements the race detector: it needs no failing schedule, only
// the code's own dominant locking discipline.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "accesses to majority-lock-guarded struct fields outside the guarding mutex",
	Run:  runLockGuard,
}

const (
	lgLock = iota
	lgUnlock
	lgAccess
)

type lgEvent struct {
	pos   token.Pos
	kind  int
	field *types.Var
}

type lgSite struct {
	pos    token.Pos
	method string
}

type lgStat struct {
	field     *types.Var
	guarded   int
	unguarded []lgSite
}

func runLockGuard(pass *Pass) {
	pkg := pass.Pkg
	sidx := structIndex(pkg)
	ix := newFuncIndex(pkg)

	for _, tn := range sortedStructNames(sidx) {
		d := sidx[tn]
		mutexName := ""
		fields := make(map[*types.Var]bool)
		for _, f := range d.fields {
			switch lp := lockPath(f.v.Type()); lp {
			case "sync.Mutex", "sync.RWMutex":
				if mutexName == "" {
					mutexName = f.v.Name()
				}
			case "":
				fields[f.v] = true
			}
		}
		if mutexName == "" || len(fields) == 0 {
			continue
		}

		stats := make(map[*types.Var]*lgStat)
		for fn, fd := range ix.decls {
			if recvTypeName(pkg, fd) != tn {
				continue
			}
			events := collectLockEvents(pkg, fd, fields)
			if len(events) == 0 {
				continue
			}
			sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
			// Replay: depth counts open lock windows; a *Locked method
			// runs entirely under the caller's lock.
			depth := 0
			if hasSuffixLocked(fn.Name()) {
				depth = 1
			}
			for _, ev := range events {
				switch ev.kind {
				case lgLock:
					depth++
				case lgUnlock:
					if depth > 0 {
						depth--
					}
				case lgAccess:
					st := stats[ev.field]
					if st == nil {
						st = &lgStat{field: ev.field}
						stats[ev.field] = st
					}
					if depth > 0 {
						st.guarded++
					} else {
						st.unguarded = append(st.unguarded, lgSite{pos: ev.pos, method: funcName(fd)})
					}
				}
			}
		}

		for _, st := range stats {
			if st.guarded < 2 || st.guarded <= len(st.unguarded) {
				continue
			}
			total := st.guarded + len(st.unguarded)
			for _, site := range st.unguarded {
				pass.Reportf(site.pos, "field %s.%s is accessed in %s without holding %s (guarded at %d of %d sites)",
					tn.Name(), st.field.Name(), site.method, mutexName, st.guarded, total)
			}
		}
	}
}

func hasSuffixLocked(name string) bool {
	return len(name) >= 6 && name[len(name)-6:] == "Locked"
}

// sortedStructNames gives a deterministic walk order over the struct
// index.
func sortedStructNames(sidx map[*types.TypeName]*structDecl) []*types.TypeName {
	names := make([]*types.TypeName, 0, len(sidx))
	for tn := range sidx {
		names = append(names, tn)
	}
	sort.Slice(names, func(i, j int) bool { return names[i].Name() < names[j].Name() })
	return names
}

// collectLockEvents gathers, in one method body, the receiver-rooted
// lock transitions and field accesses. Function literals are skipped:
// a closure's locking context is its own problem.
func collectLockEvents(pkg *Package, fd *ast.FuncDecl, fields map[*types.Var]bool) []lgEvent {
	recvObj := receiverObj(pkg, fd)
	if recvObj == nil {
		return nil
	}
	var events []lgEvent
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// A deferred unlock keeps the window open to the end of the
			// method: emit nothing, and skip the call so it is not
			// replayed as an inline unlock.
			if kind, ok := lockCallKind(pkg, n.Call, recvObj); ok && kind == lgUnlock {
				return false
			}
			return true
		case *ast.CallExpr:
			if kind, ok := lockCallKind(pkg, n, recvObj); ok {
				events = append(events, lgEvent{pos: n.Pos(), kind: kind})
			}
			return true
		case *ast.SelectorExpr:
			sel := pkg.Info.Selections[n]
			if sel == nil || sel.Kind() != types.FieldVal {
				return true
			}
			v, ok := sel.Obj().(*types.Var)
			if !ok {
				return true
			}
			if fields[v] && rootIsReceiver(pkg, n.X, recvObj) {
				events = append(events, lgEvent{pos: n.Pos(), kind: lgAccess, field: v})
			}
			return true
		}
		return true
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		return walk(n)
	})
	return events
}

// receiverObj resolves the method's receiver variable, or nil for an
// unnamed receiver.
func receiverObj(pkg *Package, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pkg.Info.Defs[fd.Recv.List[0].Names[0]]
}

// lockCallKind classifies a call as a lock or unlock on a sync mutex
// rooted at the receiver (r.mu.Lock(), or r.Lock() through an embedded
// mutex).
func lockCallKind(pkg *Package, call *ast.CallExpr, recvObj types.Object) (int, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return 0, false
	}
	if !rootIsReceiver(pkg, sel.X, recvObj) {
		return 0, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return lgLock, true
	case "Unlock", "RUnlock":
		return lgUnlock, true
	}
	return 0, false
}

// rootIsReceiver unwraps a selector chain to its base identifier and
// reports whether it names the method receiver.
func rootIsReceiver(pkg *Package, x ast.Expr, recvObj types.Object) bool {
	for {
		switch e := ast.Unparen(x).(type) {
		case *ast.SelectorExpr:
			x = e.X
		case *ast.Ident:
			return pkg.Info.Uses[e] == recvObj
		default:
			return false
		}
	}
}
