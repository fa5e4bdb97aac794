package analysis

import (
	"go/ast"
	"go/types"
)

// HotPathAlloc enforces the 0-allocs/op contract on functions annotated
// //detlint:hotpath (steady-state Stream.Step, StatsSink.Observe, the
// table managers' Decide with TDTable.Choose and RelaxTables.Steps, the
// openSched claim loop, the frontier heaps).
// Inside an annotated function it flags the constructs that reach the
// heap: fmt calls, append, make/new, closures that capture variables,
// and interface boxing of non-pointer values. The check is per-function
// and syntactic by design — the allocation-count test harness
// (testing.AllocsPerRun over the annotated entry points) is the dynamic
// cross-check that catches what escapes analysis of callees would need.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "//detlint:hotpath functions must not contain fmt calls, append, make/new, capturing closures, or interface boxing",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn.Doc, "hotpath") {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	sig, _ := pass.Info.Defs[fn.Name].Type().(*types.Signature)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, n)
		case *ast.IndexExpr:
			checkMapAccess(pass, n)
		case *ast.FuncLit:
			checkClosureCapture(pass, fn, n)
			return false // the literal runs elsewhere; don't scan its body twice
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) {
					checkBoxing(pass, pass.Info.TypeOf(lhs), n.Rhs[i])
				}
			}
		case *ast.ReturnStmt:
			if sig != nil && sig.Results().Len() == len(n.Results) {
				for i, res := range n.Results {
					checkBoxing(pass, sig.Results().At(i).Type(), res)
				}
			}
		}
		return true
	})
}

// checkHotCall flags allocating calls and boxing at call boundaries.
func checkHotCall(pass *Pass, call *ast.CallExpr) {
	switch {
	case isBuiltin(pass.Info, call, "append"):
		pass.Reportf(call.Pos(), "append in hot path may grow the backing array; preallocate and reslice, or justify with //detlint:allow")
		return
	case isBuiltin(pass.Info, call, "make"), isBuiltin(pass.Info, call, "new"):
		pass.Reportf(call.Pos(), "%s in hot path allocates", exprString(call.Fun))
		return
	}
	// Conversion to an interface type boxes its operand.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			checkBoxing(pass, tv.Type, call.Args[0])
		}
		return
	}
	if fn := calleeFunc(pass.Info, call.Fun); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s in hot path allocates (formatting boxes its operands)", fn.Name())
		return
	}
	// Boxing of arguments into interface parameters.
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i == params.Len()-1 && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok && call.Ellipsis == 0 {
				pt = s.Elem()
			}
		}
		if pt != nil {
			checkBoxing(pass, pt, arg)
		}
	}
}

// checkMapAccess flags indexing a map inside a hot function. A lookup
// hashes on every call and a store can grow the table mid-run; both
// break the steady-state cost model the annotation asserts. The
// instrument bundles in internal/obs exist precisely so hot code holds
// direct *Counter/*Gauge pointers — a map-backed metrics lookup
// (metrics[name].Inc()) on the hot path is the anti-pattern this
// rejects. Slice and array indexing pass through untouched.
func checkMapAccess(pass *Pass, idx *ast.IndexExpr) {
	t := pass.Info.TypeOf(idx.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	pass.Reportf(idx.Pos(), "map access in hot path hashes per call and may allocate; hold direct pointers (e.g. pre-registered instruments), or justify with //detlint:allow")
}

// checkBoxing flags storing a non-pointer-shaped concrete value into an
// interface-typed destination — the assignment heap-allocates the box.
func checkBoxing(pass *Pass, dst types.Type, src ast.Expr) {
	if dst == nil {
		return
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	st := pass.Info.TypeOf(src)
	if st == nil || pointerShaped(st) {
		return
	}
	if b, ok := st.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	pass.Reportf(src.Pos(), "interface boxing of non-pointer %s in hot path allocates; pass a pointer or keep the type concrete", st.String())
}

// checkClosureCapture flags function literals that capture variables of
// the enclosing function — each capture forces a heap-allocated closure
// (and usually moves the captured variable to the heap with it).
func checkClosureCapture(pass *Pass, enclosing *ast.FuncDecl, lit *ast.FuncLit) {
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || seen[obj] || obj.IsField() {
			return true
		}
		// Captured = declared in the enclosing function, outside the lit.
		if obj.Pos() >= enclosing.Pos() && obj.Pos() < lit.Pos() {
			seen[obj] = true
			pass.Reportf(lit.Pos(), "closure captures %s in hot path; captures heap-allocate the closure", id.Name)
		}
		return true
	})
}
