package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc checks functions annotated //wlan:hotpath for
// allocation-inducing constructs. The runtime walls (the zero-alloc tests,
// core's TestSoakSteadyState) prove the steady state is 0 allocs/op after
// the fact; this analyzer rejects the constructs that would break them
// before the code runs.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "in //wlan:hotpath functions, flag escaping composite literals, make/new, " +
		"fresh-slice appends, closures, interface boxing and string<->[]byte conversions",
	Run: runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := funcDirective(fn, VerbHotPath); !ok {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	report := func(pos token.Pos, format string, args ...any) {
		pass.Reportf(pos, "hotpath contract: "+name+" is //wlan:hotpath but "+format, args...)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "takes the address of a composite literal (heap allocation); reuse pooled storage")
					// The inner literal is part of the same allocation;
					// do not descend into it for a duplicate finding.
					checkNested(pass, fn, lit)
					return false
				}
			}
		case *ast.CompositeLit:
			switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "builds a slice literal (allocates a backing array); reuse a buffer")
			case *types.Map:
				report(n.Pos(), "builds a map literal (allocates); hoist the map out of the hot path")
			}
		case *ast.FuncLit:
			report(n.Pos(), "defines a closure (allocates when it captures or escapes); hoist it or pass state explicitly")
			return false
		case *ast.CallExpr:
			checkHotCall(pass, fn, n, report)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					checkBoxing(pass, pass.TypesInfo.TypeOf(n.Lhs[i]), rhs, report)
				}
			}
		case *ast.ReturnStmt:
			checkHotReturn(pass, fn, n, report)
		}
		return true
	})
}

// checkNested looks inside an already-reported &T{...} literal for
// separately-allocating slice/map element literals.
func checkNested(pass *Pass, fn *ast.FuncDecl, lit *ast.CompositeLit) {
	for _, elt := range lit.Elts {
		ast.Inspect(elt, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CompositeLit); ok {
				switch pass.TypesInfo.TypeOf(inner).Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(inner.Pos(), "hotpath contract: %s is //wlan:hotpath but nests a slice/map literal (allocates)", fn.Name.Name)
				}
			}
			return true
		})
	}
}

func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	// Conversions: string<->[]byte copies the bytes every call.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, pass.TypesInfo.TypeOf(call.Args[0])
		if isStringByteConv(to, from) {
			report(call.Pos(), "converts between string and []byte (copies); keep one representation")
		}
		return
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		switch obj := pass.TypesInfo.Uses[id]; {
		case obj == nil:
		case obj == types.Universe.Lookup("make"):
			report(call.Pos(), "calls make (allocates); size the buffer once outside the hot path")
			return
		case obj == types.Universe.Lookup("new"):
			report(call.Pos(), "calls new (allocates); reuse pooled storage")
			return
		case obj == types.Universe.Lookup("append"):
			if len(call.Args) > 0 {
				switch a := unparen(call.Args[0]).(type) {
				case *ast.CallExpr:
					// append([]T(nil), ...): a fresh nil slice every call.
					if tv, ok := pass.TypesInfo.Types[a.Fun]; ok && tv.IsType() && len(a.Args) == 1 {
						if id, ok := unparen(a.Args[0]).(*ast.Ident); ok && id.Name == "nil" {
							report(call.Pos(), "appends to nil (allocates a fresh slice every call); append into a reused buffer")
						}
					}
				case *ast.CompositeLit:
					report(call.Pos(), "appends to a fresh slice literal (allocates); append into a reused buffer")
				}
			}
			return
		}
	}
	// Interface boxing at call arguments (this is what catches fmt calls:
	// every ...any argument boxes, and the variadic slice allocates).
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // passing an existing slice through
			}
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		checkBoxing(pass, param, arg, report)
	}
}

func checkHotReturn(pass *Pass, fn *ast.FuncDecl, ret *ast.ReturnStmt, report func(token.Pos, string, ...any)) {
	if fn.Type.Results == nil {
		return
	}
	sig, ok := pass.TypesInfo.TypeOf(fn.Name).(*types.Signature)
	if !ok || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, res := range ret.Results {
		checkBoxing(pass, sig.Results().At(i).Type(), res, report)
	}
}

// checkBoxing flags storing a concrete non-pointer value into an
// interface-typed slot: the value is copied to the heap. Pointers and nil
// carry no payload allocation; pre-boxed interface values pass through.
func checkBoxing(pass *Pass, target types.Type, val ast.Expr, report func(token.Pos, string, ...any)) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	vt := pass.TypesInfo.TypeOf(val)
	if vt == nil || types.IsInterface(vt) {
		return
	}
	switch vt.Underlying().(type) {
	case *types.Pointer, *types.Signature, *types.Chan, *types.Map:
		return // pointer-shaped: stored directly, no boxing allocation
	}
	if vt == types.Typ[types.UntypedNil] {
		return
	}
	// Constants box into static read-only data (think panic("msg")), not
	// the heap.
	if tv, ok := pass.TypesInfo.Types[val]; ok && tv.Value != nil {
		return
	}
	report(val.Pos(), "boxes a %s into %s (allocates); avoid interface crossings on the hot path", vt, target)
}

func isStringByteConv(to, from types.Type) bool {
	return (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
