package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// hotPathFuncs maps hot-path packages (by import-path suffix) to a
// regexp over function names: only matching functions are held to the
// allocation-free standard. internal/linalg is kernels throughout; in
// rtec the store's window views and eviction are the per-query inner
// loop (PR 1's O(log n) contract), while rule evaluation legitimately
// builds result maps.
var hotPathFuncs = map[string]*regexp.Regexp{
	"internal/linalg": regexp.MustCompile(`.*`),
	"rtec":            regexp.MustCompile(`^(window|windowForKey|sliceSpan|trimBefore|evict|dirtyFloor|insertSorted|dot4|rows|rowsForKey|countInSpan|idBounds|trimIDs)$`),
}

// perCallFuncs maps packages to the functions whose cost is paid whole
// on every report or crowdsourcing round: gp's predictive mean is a
// gather and one product, and the flow map's sparse solve (MeanAll: the
// standardization, the system set-up, the CG iterations, the
// adjacency-list product) a constant number of slices — nothing
// allocated per vertex or per iteration, nor per vertex's solve in the
// uncertainty map (VarianceAll: scratch per worker); crowd's roster view and nearest-k policy run hundreds of
// times a boundary — nothing allocated per candidate, and no reflective
// sort; rtec's fold of a simple fluent's transition points and its
// window clip run for every fluent at every query, and interval's
// inertia kernel for every instance — slices sized once per call,
// nothing allocated per instance or per point; dublin's ground-truth
// field is asked about every generated bus report and SCATS reading and
// every crowd participant's answer — it reads its static grid and
// allocates nothing. A durable checkpoint pays rtec's Fresh dedup
// snapshot (Entries: the output and reused scratch sized per call,
// nothing per identity) and wal's range encoder for every pending block
// (EncodeBatchRows and its column writers: one remap table per call,
// nothing per row or per dictionary entry). Unlike the kernel rule these
// hold at every loop depth (the per-vertex loop of a predictor is an
// outer loop), closures the function returns included.
var perCallFuncs = map[string]*regexp.Regexp{
	"gp":       regexp.MustCompile(`^(crossCov|meanFrom|Mean|PredictAll|MeanAll|VarianceAll|system|standardize|solve|mulDot)$`),
	"crowd":    regexp.MustCompile(`^(Online|SelectNearest)$`),
	"rtec":     regexp.MustCompile(`^(FoldTransitions|ClipInstances|Entries)$`),
	"interval": regexp.MustCompile(`^AppendInertia$`),
	"dublin":   regexp.MustCompile(`^(CongestionAt|IsCongested)$`),
	"wal":      regexp.MustCompile(`^(EncodeBatchRows|appendDictRange|appendCells)$`),
}

// reflectiveSorts are the package sort entry points that order through
// reflection (Slice*) or an interface value (Sort, Stable): three
// quarters of a crowdsourcing round before the roster kept its view
// sorted.
var reflectiveSorts = map[string]bool{"Slice": true, "SliceStable": true, "Sort": true, "Stable": true}

// batchPathFuncs maps packages to the functions forming the columnar
// batch path: the row loops whose whole point is that no per-event map
// is ever built — in the root package also the monitoring processor's
// boundary step (fireDue) and the sharded tier's fold loops over the
// shards' results, the serial tail of every boundary; in dublin the
// generator's arrival drain, which hands raw SDEs on and never
// materializes one itself. Unlike
// the kernel rule above, these are checked at every loop depth — one
// ItemAt or map construction per row silently reverts the batch path to
// per-item cost.
var batchPathFuncs = map[string]*regexp.Regexp{
	"streams": regexp.MustCompile(`^(AppendRowFrom|faultBatch)$`),
	"rtec":    regexp.MustCompile(`^(copyRows|inputBlock|insertRows|mergeOrder|appendCols|appendFrom|gatherCol|gatherRows|snapshotTypes|restoreType)$`),
	"insight": regexp.MustCompile(`^(admit|ProcessBatch|fireDue|foldFresh|foldBusCongestion)$`),
	"dublin":  regexp.MustCompile(`^(BatchSDEs|appendSDE|CollectBatches|drain)$`),
}

// ruleClosurePkgs are the packages whose rtec rule closures — the
// function literals bound to an EventRule's Derive or a SimpleFluent's
// Transitions field — are held to the derived-event contract: per row
// of the window they scan, no attribute map and no concatenated key.
// One map[string]any per derived event (plus its boxed values) was a
// third of recognition time on the 10x profile; rules derive into an
// rtec.EventBlock instead.
var ruleClosurePkgs = []string{"traffic"}

// ruleClosureFields are the composite-literal keys whose function
// literal values are rule closures.
var ruleClosureFields = map[string]bool{"Derive": true, "Transitions": true}

// itemMaterializers are the calls that rebuild a per-event (map or
// view) representation from columnar data; calling one per row inside
// a batch loop defeats the batching. Event/At/Slice cover the resident
// column store: its window and merge paths must move packed cells, not
// materialize one Event per row.
var itemMaterializers = map[string]bool{
	"ItemAt":   true,
	"Clone":    true,
	"NewEvent": true,
	"Event":    true,
	"At":       true,
	"Slice":    true,
}

// HotAlloc flags allocation sites inside the innermost loop bodies of
// hot-path functions: composite literals, make, append (which may
// grow), string concatenation and interface boxing. The dense kernels
// get their throughput from allocation-free inner loops (the
// 4-accumulator dot products, the substitution sweeps); an alloc
// introduced there is a silent multi-× regression the residual tests
// cannot see. Cold paths inside a hot loop (error/panic construction) are
// fine — annotate them with //lint:allow hotalloc and a justification.
//
// In per-call functions (perCallFuncs) the same allocation sites are
// flagged in every loop body, and a reflective package-sort call
// (sort.Slice and friends) anywhere in the function.
//
// On the columnar batch path (batchPathFuncs) it additionally flags
// per-row map construction and Item/Event materialization calls at any
// loop depth: the zero-allocation contract of batched transport.
//
// In rule closures (ruleClosurePkgs) it flags map[string]any literals
// and string concatenation in per-row code: loop bodies and callbacks
// handed to a row iterator, at any depth, including local closures the
// rule closure delegates to.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocations in the innermost loops of hot-path kernel functions, allocations in any loop and reflective sorts in per-call functions, per-row map materialization in batch loops, and per-event attribute maps or key concatenation in rule closures",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	if pkgMatches(pass.Pkg.Path, ruleClosurePkgs) {
		checkRuleClosures(pass)
	}
	hotRe := scopeOf(hotPathFuncs, pass.Pkg.Path)
	batchRe := scopeOf(batchPathFuncs, pass.Pkg.Path)
	callRe := scopeOf(perCallFuncs, pass.Pkg.Path)
	if hotRe == nil && batchRe == nil && callRe == nil {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := funcName(fd)
			if hotRe != nil && hotRe.MatchString(fd.Name.Name) {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					body := loopBody(n)
					if body == nil || !innermostLoop(body) {
						return true
					}
					checkHotLoop(pass, "the innermost loop of hot function "+name, body)
					return true
				})
			}
			if callRe != nil && callRe.MatchString(fd.Name.Name) {
				checkPerCall(pass, name, fd.Body)
			}
			if batchRe != nil && batchRe.MatchString(fd.Name.Name) {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if body := loopBody(n); body != nil {
						checkBatchLoop(pass, name, body)
					}
					return true
				})
			}
		}
	}
}

// scopeOf returns the function-name pattern scopes holds for the
// package, or nil.
func scopeOf(scopes map[string]*regexp.Regexp, importPath string) *regexp.Regexp {
	for suffix, re := range scopes {
		if pkgMatches(importPath, []string{suffix}) {
			return re
		}
	}
	return nil
}

// checkPerCall reports, in one per-call function, the allocation sites
// of every loop body and the reflective sorts anywhere.
func checkPerCall(pass *Pass, fn string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if obj := calleeObj(pass.Pkg.Info, call); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sort" && reflectiveSorts[obj.Name()] {
				pass.Reportf(call.Pos(), "sort.%s in per-call function %s orders through reflection or an interface on every call; keep the order or use slices.SortFunc", obj.Name(), fn)
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if loop := loopBody(n); loop != nil {
			checkHotLoop(pass, "a loop of per-call function "+fn, loop) // walks the nested loops too
			return false
		}
		return true
	})
}

// checkRuleClosures finds the package's rule closures and reports
// per-event attribute maps and key concatenation in their per-row code.
func checkRuleClosures(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		// Local closures by the variable they are bound to, so a rule
		// closure that delegates — Derive: func(ctx) { return derive(ctx,
		// true) } — is followed into the closure doing the work.
		bound := make(map[types.Object]*ast.FuncLit)
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				lit, isLit := rhs.(*ast.FuncLit)
				id, isIdent := as.Lhs[i].(*ast.Ident)
				if isLit && isIdent && info.ObjectOf(id) != nil {
					bound[info.ObjectOf(id)] = lit
				}
			}
			return true
		})
		// A closure several rules delegate to is reported once.
		seen := make(map[*ast.FuncLit]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			key, isIdent := kv.Key.(*ast.Ident)
			lit, isLit := kv.Value.(*ast.FuncLit)
			if isIdent && isLit && ruleClosureFields[key.Name] {
				seen[lit] = true
				w := &ruleClosureWalk{pass: pass, field: key.Name, bound: bound, seen: seen}
				w.walk(lit.Body, false)
			}
			return true
		})
	}
}

// ruleClosureWalk walks one rule closure, tracking whether the code at
// hand runs once per row.
type ruleClosureWalk struct {
	pass  *Pass
	field string // Derive or Transitions
	bound map[types.Object]*ast.FuncLit
	seen  map[*ast.FuncLit]bool
}

func (w *ruleClosureWalk) walk(n ast.Node, perRow bool) {
	info := w.pass.Pkg.Info
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			w.walk(loopBody(n), true)
			return false // the header runs once; the body was just walked
		case *ast.FuncLit:
			w.walk(n.Body, perRow)
			return false
		case *ast.CallExpr:
			// A function literal handed to a call is a per-row callback
			// (eachCloseMove's fn); a call of a local closure continues
			// in that closure.
			for _, arg := range n.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					w.walk(lit.Body, true)
				} else {
					w.walk(arg, perRow)
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if lit := w.bound[info.ObjectOf(id)]; lit != nil && !w.seen[lit] {
					w.seen[lit] = true
					w.walk(lit.Body, perRow)
				}
			} else {
				w.walk(n.Fun, perRow)
			}
			return false
		case *ast.CompositeLit:
			if perRow && isAttrMap(info.TypeOf(n)) {
				w.pass.Reportf(n.Pos(), "attribute map per event in a %s closure; derive into an rtec.EventBlock", w.field)
				return false
			}
		case *ast.BinaryExpr:
			if perRow && n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				w.pass.Reportf(n.Pos(), "string concatenation per event in a %s closure; build the key once per distinct value", w.field)
			}
		}
		return true
	})
}

// isAttrMap reports whether t is map[string]any, the event attribute map.
func isAttrMap(t types.Type) bool {
	if t == nil {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	elem, isIface := m.Elem().Underlying().(*types.Interface)
	return isStringType(m.Key()) && isIface && elem.Empty()
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkBatchLoop reports per-row map construction and Item/Event
// materialization directly inside one batch-loop body. Nested loop
// bodies are skipped here — the caller visits every loop, so each
// statement is checked exactly once, at its own depth.
func checkBatchLoop(pass *Pass, fn string, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	walkShallow(body, func(n ast.Node) bool {
		if b := loopBody(n); b != nil && ast.Node(body) != n {
			return false
		}
		switch n := n.(type) {
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "per-row map construction in batch loop of %s defeats columnar batching", fn)
					return false
				}
			}
		case *ast.CallExpr:
			if isBuiltin(info, n, "panic") {
				return false
			}
			if isBuiltin(info, n, "make") {
				if tv, ok := info.Types[n]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "per-row map construction in batch loop of %s defeats columnar batching", fn)
					}
				}
				return true
			}
			if name, ok := calleeName(n); ok && itemMaterializers[name] {
				pass.Reportf(n.Pos(), "per-row %s call in batch loop of %s materializes the map representation", name, fn)
			}
		}
		return true
	})
}

// calleeName extracts the bare called name of a call expression:
// "f(...)" yields f, "x.M(...)" yields M. Conversions and builtins
// yield false.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name, true
	case *ast.SelectorExpr:
		return fn.Sel.Name, true
	}
	return "", false
}

// loopBody returns the body of a for/range statement, or nil.
func loopBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	}
	return nil
}

// innermostLoop reports whether body contains no nested loop (nested
// function literals are opaque: their loops are analyzed when the
// literal itself is walked).
func innermostLoop(body *ast.BlockStmt) bool {
	inner := false
	walkShallow(body, func(n ast.Node) bool {
		if ast.Node(body) != n && loopBody(n) != nil {
			inner = true
		}
		return !inner
	})
	return !inner
}

// checkHotLoop reports every allocation site directly inside body;
// where names the loop in the message.
func checkHotLoop(pass *Pass, where string, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	walkShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			pass.Reportf(n.Pos(), "composite literal allocates in %s", where)
			return false // don't re-flag nested literals
		case *ast.CallExpr:
			switch {
			case isBuiltin(info, n, "panic"):
				// A reached panic ends the loop: everything evaluated
				// for its argument is the cold path.
				return false
			case isBuiltin(info, n, "make"):
				pass.Reportf(n.Pos(), "make allocates in %s", where)
			case isBuiltin(info, n, "append"):
				pass.Reportf(n.Pos(), "append may grow its backing array in %s", where)
			default:
				checkBoxing(pass, where, n)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				pass.Reportf(n.Pos(), "string concatenation allocates in %s", where)
			}
		}
		return true
	})
}

// checkBoxing flags call arguments that convert a concrete value to an
// interface parameter — each such conversion may heap-allocate.
func checkBoxing(pass *Pass, where string, call *ast.CallExpr) {
	info := pass.Pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return // conversion or builtin
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.IsNil() {
			continue
		}
		if _, argIface := at.Type.Underlying().(*types.Interface); argIface {
			continue
		}
		pass.Reportf(arg.Pos(), "interface conversion (boxing) may allocate in %s", where)
	}
}
