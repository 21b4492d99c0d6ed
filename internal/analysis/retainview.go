package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// RetainView enforces the RX-view contract (mac, net80211 and ether
// package docs): frames delivered through a mac.Receiver-shaped handler are
// zero-copy views into pooled decode buffers, and so are the payloads
// handed to a DeliveryFunc or an ether port receiver; each is valid only
// for the duration of the callback. Storing the frame, its body, the
// payload, or a slice of any of them into anything that outlives the
// handler — a field, a global, a captured variable, a closure, a channel —
// without an interposed Clone or copy silently reads whatever the pool
// holds next.
var RetainView = &Analyzer{
	Name: "retainview",
	Doc: "flag RX handlers that retain a delivered *frame.Frame, its body, a delivered " +
		"payload, or a slice of one past the callback without Clone",
	Run: runRetainView,
}

func runRetainView(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return true
				}
				if param := rxHandlerParam(pass, fn.Type, fn.Name.Name); param != nil {
					checkHandler(pass, fn, fn.Body, param)
				}
			case *ast.FuncLit:
				// Anonymous receivers: only a full handler signature
				// identifies them (there is no name to match).
				if param := rxHandlerParam(pass, fn.Type, ""); param != nil {
					checkHandler(pass, fn, fn.Body, param)
				}
			}
			return true
		})
	}
	return nil
}

// rxHandlerParam reports whether a function is an RX delivery handler and
// returns its view parameter. Four shapes qualify, the first three
// regardless of name: the mac.Receiver signature func(*frame.Frame,
// medium.RxInfo); the net80211 DeliveryFunc func(frame.MACAddr,
// frame.MACAddr, []byte), whose payload is the view; an ether port receiver
// func(ether.Frame), whose Payload is; and any handle*/receive*/on*/rx*-named
// function whose first parameter is a *frame.Frame (the net80211 handler
// family).
func rxHandlerParam(pass *Pass, ft *ast.FuncType, name string) *ast.Ident {
	var ids []*ast.Ident
	var ts []types.Type
	for _, f := range ft.Params.List {
		t := pass.TypesInfo.TypeOf(f.Type)
		if len(f.Names) == 0 {
			ids, ts = append(ids, nil), append(ts, t)
		}
		for _, id := range f.Names {
			ids, ts = append(ids, id), append(ts, t)
		}
	}
	isPtr := false
	if len(ts) > 0 {
		_, isPtr = ts[0].(*types.Pointer)
	}
	view := 0
	switch {
	case len(ts) == 1 && !isPtr && IsNamed(ts[0], "ether", "Frame"):
	case len(ts) == 3 && IsNamed(ts[0], "frame", "MACAddr") && IsNamed(ts[1], "frame", "MACAddr") && isByteSlice(ts[2]):
		view = 2
	case !isPtr || !IsNamed(ts[0], "frame", "Frame"):
		return nil
	case len(ts) == 2 && IsNamed(ts[1], "medium", "RxInfo"):
	case !slices.ContainsFunc([]string{"handle", "receive", "on", "rx"}, func(p string) bool {
		return strings.HasPrefix(strings.ToLower(name), p)
	}):
		return nil
	}
	if ids[view] == nil || ids[view].Name == "_" {
		return nil
	}
	return ids[view]
}

// checkHandler flags retention of the view rooted at param within body, the
// body of fn.
func checkHandler(pass *Pass, fn ast.Node, body *ast.BlockStmt, param *ast.Ident) {
	tracked := map[types.Object]bool{}
	if obj := pass.TypesInfo.Defs[param]; obj != nil {
		tracked[obj] = true
	} else if obj := pass.TypesInfo.Uses[param]; obj != nil {
		tracked[obj] = true
	}
	if len(tracked) == 0 {
		return
	}

	// Function literals that cannot outlive the handler are exempt:
	// immediately-invoked ones, and locals like `reply := func(...)...`
	// whose every use is a direct synchronous call.
	invoked := map[*ast.FuncLit]bool{}
	localLit := map[types.Object]*ast.FuncLit{}
	callUses := map[types.Object]int{}
	totalUses := map[types.Object]int{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if lit, ok := unparen(n.Fun).(*ast.FuncLit); ok {
				invoked[lit] = true
			}
			if id, ok := unparen(n.Fun).(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					callUses[obj]++
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if lit, ok := unparen(n.Rhs[0]).(*ast.FuncLit); ok {
					if id, ok := unparen(n.Lhs[0]).(*ast.Ident); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							localLit[obj] = lit
						}
					}
				}
			}
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[n]; obj != nil {
				totalUses[obj]++
			}
		}
		return true
	})
	for obj, lit := range localLit {
		if callUses[obj] == totalUses[obj] {
			invoked[lit] = true
		}
	}

	isView := func(e ast.Expr) bool { return isViewExpr(pass, tracked, e) }

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if !holdsView(pass.TypesInfo.TypeOf(lhs)) {
					// et, p, err := frame.DecapSNAP(f.Body): of a decoder's
					// results only slices and structs carry the view on.
					continue
				}
				// Aliasing into a fresh local keeps the value a view:
				// extend the tracked set instead of flagging.
				if id, ok := unparen(lhs).(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil && isView(rhs) {
						tracked[obj] = true
						continue
					}
				}
				if !lhsOutlivesHandler(pass, lhs, fn) {
					continue
				}
				if stored := storedViewIn(pass, tracked, rhs); stored != nil {
					pass.Reportf(stored.Pos(), "rx-view contract: delivered frames and payloads are views into "+
						"pooled buffers, valid only during the handler; Clone() what outlives it (see retainview)")
				}
			}
		case *ast.SendStmt:
			if stored := storedViewIn(pass, tracked, n.Value); stored != nil {
				pass.Reportf(stored.Pos(), "rx-view contract: sending a delivered frame view to a channel lets it "+
					"outlive the handler; send a Clone() (see retainview)")
			}
		case *ast.FuncLit:
			if invoked[n] {
				return true
			}
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil && tracked[obj] {
						pass.Reportf(id.Pos(), "rx-view contract: closure captures the delivered frame view %s and "+
							"may run after the handler returns; capture a Clone() (see retainview)", id.Name)
						return false
					}
				}
				return true
			})
			return false
		}
		return true
	})
}

// isViewExpr reports whether e is (a slice of) the delivered view: the
// tracked frame pointer itself, its Body field, an index/slice expression
// over either, or what one of frame's decoders returns for any of those.
func isViewExpr(pass *Pass, tracked map[types.Object]bool, e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		return obj != nil && tracked[obj]
	case *ast.SelectorExpr:
		if !isViewExpr(pass, tracked, e.X) {
			return false
		}
		// Field reads that copy (addresses, scalars) are safe; only the
		// aliasing body slice stays a view.
		return isByteSlice(pass.TypesInfo.TypeOf(e))
	case *ast.IndexExpr:
		return isViewExpr(pass, tracked, e.X)
	case *ast.SliceExpr:
		return isViewExpr(pass, tracked, e.X)
	case *ast.StarExpr:
		return isViewExpr(pass, tracked, e.X)
	case *ast.CallExpr:
		// frame's decoders return views of their input: DecapSNAP's
		// payload, the []byte fields of a Parse* result (which the selector
		// rule above picks out once the result is tracked).
		sel, _ := unparen(e.Fun).(*ast.SelectorExpr)
		if sel == nil {
			return false
		}
		fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "frame" ||
			fn.Name() != "DecapSNAP" && !strings.HasPrefix(fn.Name(), "Parse") {
			return false
		}
		for _, arg := range e.Args {
			if isViewExpr(pass, tracked, arg) {
				return true
			}
		}
	}
	return false
}

// holdsView reports whether a value of type t can alias a decode buffer.
func holdsView(t types.Type) bool {
	if t == nil {
		return false
	}
	_, isStruct := t.Underlying().(*types.Struct)
	return isStruct || isByteSlice(t)
}

// storedViewIn returns the view expression that rhs would store, nil if
// rhs stores no view. Clone()-style calls and append spread-copies of
// byte views sanitize; storing the view value itself, appending it as an
// element, or embedding it in a composite literal retains it.
func storedViewIn(pass *Pass, tracked map[types.Object]bool, rhs ast.Expr) ast.Expr {
	rhs = unparen(rhs)
	if isViewExpr(pass, tracked, rhs) {
		return rhs
	}
	switch e := rhs.(type) {
	case *ast.CallExpr:
		if isCloneCall(pass, e) {
			return nil
		}
		if id, ok := unparen(e.Fun).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == types.Universe.Lookup("append") {
			for i, arg := range e.Args {
				if i == 0 {
					continue // the destination, not a stored value
				}
				if isViewExpr(pass, tracked, arg) {
					if i == len(e.Args)-1 && e.Ellipsis.IsValid() && isByteSlice(pass.TypesInfo.TypeOf(arg)) {
						continue // append(dst, view...) copies the bytes
					}
					return arg
				}
			}
		}
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if isViewExpr(pass, tracked, v) {
				return v
			}
		}
	case *ast.UnaryExpr:
		if lit, ok := unparen(e.X).(*ast.CompositeLit); ok {
			return storedViewIn(pass, tracked, lit)
		}
	}
	return nil
}

// isCloneCall matches calls that deep-copy their receiver or argument:
// frame.Frame.Clone, bytes.Clone and clone*-named helpers.
func isCloneCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return strings.HasPrefix(strings.ToLower(fun.Sel.Name), "clone")
	case *ast.Ident:
		return strings.HasPrefix(strings.ToLower(fun.Name), "clone")
	}
	return false
}

// lhsOutlivesHandler reports whether an assignment target survives the
// handler's dynamic extent: a field, a dereference, or a variable or
// container declared outside fn (package level, or captured by a function
// literal). What fn declares dies with it and is handled by view tracking
// instead.
func lhsOutlivesHandler(pass *Pass, lhs ast.Expr, fn ast.Node) bool {
	switch e := unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.StarExpr:
		return true
	case *ast.IndexExpr:
		id, ok := unparen(e.X).(*ast.Ident)
		return !ok || lhsOutlivesHandler(pass, id, fn)
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		return obj != nil && (obj.Pos() < fn.Pos() || obj.Pos() >= fn.End())
	}
	return false
}
