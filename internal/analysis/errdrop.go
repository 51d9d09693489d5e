package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// errDropCallees names the I/O calls whose errors are the durability
// contract itself: a dropped error from any of them can silently turn
// "fsynced and recoverable" into "lost on the next crash". Matched by
// callee name inside the durability scope; the signature must actually
// return an error for a finding to fire.
var errDropCallees = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteAt":     true,
	"Sync":        true,
	"SyncDir":     true, // the storage seam's directory fsync (internal/vfs)
	"Close":       true,
	"Rename":      true,
	"Truncate":    true,
	"Remove":      true,
}

// errDropFiles are the durability-critical files of the root package;
// the whole streams/wal package is in scope by import-path suffix.
var errDropFiles = map[string]bool{
	"checkpoint.go":       true,
	"pipeline_durable.go": true,
}

// ErrDrop flags discarded errors from durability-critical I/O calls in
// the write-ahead-log package and the checkpoint/recovery files: bare
// call statements, go/defer statements, and assignments that send the
// error result to the blank identifier. Crash recovery is only as
// strong as its weakest error check — a Sync whose failure nobody sees
// is a checkpoint that may not exist after the crash it was written
// for. Deliberate best-effort drops (cleanup of a file about to be
// removed, error paths that already carry a root cause) are annotated
// with //lint:allow errdrop and a justification.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "flags discarded errors from durability-critical I/O in the WAL and checkpoint paths",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) {
	walPkg := pkgMatches(pass.Pkg.Path, []string{"wal"})
	for _, f := range pass.Pkg.Files {
		if !walPkg {
			name := filepath.Base(pass.Pkg.Fset.Position(f.Pos()).Filename)
			if !errDropFiles[name] {
				continue
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					checkDroppedCall(pass, call, "discarded")
				}
			case *ast.GoStmt:
				checkDroppedCall(pass, st.Call, "discarded by go statement")
			case *ast.DeferStmt:
				checkDroppedCall(pass, st.Call, "discarded by defer")
			case *ast.AssignStmt:
				if len(st.Rhs) != 1 {
					return true
				}
				call, ok := st.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				name, inScope := errDropCallee(pass, call)
				if !inScope {
					return true
				}
				for _, pos := range errResultPositions(pass, call) {
					if pos < len(st.Lhs) && isBlank(st.Lhs[pos]) {
						pass.Reportf(call.Pos(), "error from %s assigned to _: durability-critical errors must be checked", name)
					}
				}
			}
			return true
		})
	}
}

// checkDroppedCall reports a statement-position call whose error
// result(s) vanish entirely.
func checkDroppedCall(pass *Pass, call *ast.CallExpr, how string) {
	name, inScope := errDropCallee(pass, call)
	if !inScope {
		return
	}
	if len(errResultPositions(pass, call)) == 0 {
		return
	}
	pass.Reportf(call.Pos(), "error from %s %s: durability-critical errors must be checked", name, how)
}

// errDropCallee extracts the called name and reports whether it is one
// of the durability-critical callees.
func errDropCallee(pass *Pass, call *ast.CallExpr) (string, bool) {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return "", false
	}
	return name, errDropCallees[name]
}

// errResultPositions lists the result indices of the call that have
// type error (empty when the call returns none, e.g. a same-named
// method with a different signature).
func errResultPositions(pass *Pass, call *ast.CallExpr) []int {
	tv, ok := pass.Pkg.Info.Types[call]
	if !ok {
		return nil
	}
	errType := types.Universe.Lookup("error").Type()
	switch t := tv.Type.(type) {
	case *types.Tuple:
		var out []int
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errType) {
				out = append(out, i)
			}
		}
		return out
	default:
		if types.Identical(tv.Type, errType) {
			return []int{0}
		}
		return nil
	}
}

// isBlank reports whether an expression is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
