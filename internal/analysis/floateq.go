package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags == and != between floating-point operands. Exact float
// comparison is almost always a latent bug in numeric code — the dense
// kernels and the sparse GP solves are validated against tolerances
// precisely because refactoring changes rounding.
// Two idioms are exempt: x != x (the NaN test) and comparison against
// an exact-zero literal (the "is it exactly the unset/singular value"
// guard, which IEEE 754 represents exactly). Anything else either gets
// a tolerance or an explicit //lint:allow floateq justification.
// Test files are outside the framework's load set, so the equivalence
// tests are unaffected by construction.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "flags exact ==/!= comparison of floating-point values",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			xt, xok := info.Types[be.X]
			yt, yok := info.Types[be.Y]
			if !xok || !yok || (!isFloat(xt.Type) && !isFloat(yt.Type)) {
				return true
			}
			if isExactZero(xt) || isExactZero(yt) {
				return true
			}
			if types.ExprString(be.X) == types.ExprString(be.Y) {
				return true // x != x: the NaN idiom
			}
			pass.Reportf(be.Pos(), "exact floating-point %s comparison: use a tolerance (see internal/linalg equivalence harness)", be.Op)
			return true
		})
	}
}

// isExactZero reports whether the operand is a constant zero — exactly
// representable, so comparing against it is a well-defined guard.
func isExactZero(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	return tv.Value.ExactString() == "0"
}
