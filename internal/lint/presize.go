package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Presize flags the growth pattern the allocator pays for N times when
// once would do: a local slice born WITHOUT capacity (`var x []T`,
// `x := []T{}`, `make([]T, 0)`) that grows by self-append inside a loop
// whose trip count is statically derivable. Every doubling is an
// allocation plus a copy of everything appended so far; with the bound
// in hand, `make([]T, 0, n)` pays one.
//
// A bound is "derivable" when the innermost loop around the append is:
//
//   - `for …, v := range s` — bound len(s);
//   - `for i := 0; i < n; i++` — bound n (a constant, an identifier,
//     or len(s));
//   - `for len(x) < k { … x = append(x, …) }` — the slice's own length
//     compared against k: the bound is k exactly (the CELF
//     seed-selection shape).
//
// Sanctioned idioms, never reported:
//
//   - birth with capacity: `make([]T, 0, n)` (any non-zero cap
//     expression);
//   - reuse-and-reslice: `x = x[:0]` before the loop keeps the old
//     backing array — the steady-state cost is zero allocations;
//   - spread appends (`append(x, ys…)`) — the growth per iteration is
//     not one element, so the loop bound alone is not the capacity;
//   - non-local slices (fields, params) and slices born from unknown
//     producers — their history is not visible to a per-function
//     analysis.
var Presize = &Analyzer{
	Name: "presize",
	Doc:  "flag self-append in a statically bounded loop on a local slice born without capacity; sanction make([]T,0,n) and x = x[:0] reuse",
	Kind: KindFlowSensitive,
	Run:  runPresize,
}

func runPresize(pkg *Package, r *Reporter) {
	if pkg.Info == nil {
		return
	}
	sigVars := signatureVars(pkg)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPresize(pkg, fd, sigVars, r)
		}
	}
}

// sliceBirth records how a local slice variable came to life.
type sliceBirth struct {
	pos token.Pos
	// capless is true for the no-capacity births (nil, empty literal,
	// make(…, 0)); false marks the variable as sanctioned or unknown —
	// either way, not reportable.
	capless bool
}

func checkPresize(pkg *Package, fd *ast.FuncDecl, sigVars map[types.Object]bool, r *Reporter) {
	births := collectBirths(pkg, sigVars, fd.Body)
	reported := make(map[types.Object]bool)
	walkStack(fd.Body, func(stack []ast.Node) bool {
		if _, ok := stack[len(stack)-1].(*ast.FuncLit); ok && len(stack) > 1 {
			return false // a closure's appends run on its own schedule
		}
		as, ok := stack[len(stack)-1].(*ast.AssignStmt)
		if !ok {
			return true
		}
		obj, spread := selfAppend(pkg, sigVars, as)
		if obj == nil || spread || reported[obj] {
			return true
		}
		birth, ok := births[obj]
		if !ok || !birth.capless || birth.pos >= as.Pos() {
			return true
		}
		bound := innermostLoopBound(pkg, stack, obj)
		if bound == "" {
			return true
		}
		reported[obj] = true
		r.Reportf("presize", as.Pos(),
			"%s grows by append inside a loop bounded by %s but was born without capacity at line %d — each doubling reallocates and copies the slice; pre-size with make(…, 0, %s) or reuse a scratch buffer with %s = %s[:0]",
			obj.Name(), bound, pkg.Fset.Position(birth.pos).Line, bound, obj.Name(), obj.Name())
		return true
	})
}

// collectBirths scans the body for slice-variable origins: capacity-less
// births stay reportable until a sanctioning event (non-zero cap make,
// x = x[:0] reslice, or any opaque producer) downgrades them.
func collectBirths(pkg *Package, sigVars map[types.Object]bool, body *ast.BlockStmt) map[types.Object]sliceBirth {
	births := make(map[types.Object]sliceBirth)
	set := func(obj types.Object, pos token.Pos, capless bool) {
		if obj == nil {
			return
		}
		if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		if old, ok := births[obj]; ok && !old.capless {
			return // once sanctioned, stays sanctioned
		}
		births[obj] = sliceBirth{pos: pos, capless: capless}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					set(pkg.Info.Defs[name], name.Pos(), true) // var x []T — nil birth
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE && n.Tok != token.ASSIGN {
				return true
			}
			if len(n.Lhs) != len(n.Rhs) {
				// Multi-value producer: opaque.
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						set(identObject(pkg, id), n.Pos(), false)
					}
				}
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := identObject(pkg, id)
				if obj == nil {
					continue
				}
				if aObj, _ := selfAppendExpr(pkg, sigVars, id, n.Rhs[i]); aObj != nil {
					continue // growth, not a birth
				}
				set(obj, n.Pos(), caplessBirthExpr(pkg, obj, n.Rhs[i]))
			}
		}
		return true
	})
	return births
}

// caplessBirthExpr classifies one initializer: true for the
// no-capacity births, false for everything that sanctions or obscures.
func caplessBirthExpr(pkg *Package, obj types.Object, rhs ast.Expr) bool {
	switch e := rhs.(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0 // x := []T{} — empty, no capacity
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || !isBuiltin(pkg, id) {
			return false // opaque producer
		}
		if len(e.Args) >= 3 {
			return false // make([]T, n, cap) — capacity given
		}
		if len(e.Args) == 2 {
			tv := pkg.Info.Types[e.Args[1]]
			return tv.Value != nil && tv.Value.String() == "0" // make([]T, 0)
		}
		return false
	case *ast.SliceExpr:
		// x = x[:0] — the reuse idiom — keeps the backing array;
		// any reslice means an array already exists.
		return false
	case *ast.Ident:
		return e.Name == "nil"
	}
	return false
}

// selfAppend matches `x = append(x, v)` (single element, no spread) and
// returns x's object.
func selfAppend(pkg *Package, sigVars map[types.Object]bool, as *ast.AssignStmt) (types.Object, bool) {
	if (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	return selfAppendExpr(pkg, sigVars, id, as.Rhs[0])
}

// selfAppendExpr matches rhs as append(x, …) where x is the given
// identifier; spread reports append(x, ys…).
func selfAppendExpr(pkg *Package, sigVars map[types.Object]bool, x *ast.Ident, rhs ast.Expr) (types.Object, bool) {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return nil, false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" || !isBuiltin(pkg, fn) {
		return nil, false
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := identObject(pkg, x)
	if obj == nil || identObject(pkg, first) != obj {
		return nil, false
	}
	if !isBodyLocalVar(sigVars, obj) {
		return nil, false
	}
	return obj, call.Ellipsis.IsValid()
}

// innermostLoopBound walks the ancestor stack from the append outward
// to the nearest loop and derives its static bound, "" when the loop
// shape is not understood. obj is the appended slice (the
// `for len(x) < k` shape needs it).
func innermostLoopBound(pkg *Package, stack []ast.Node, obj types.Object) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch loop := stack[i].(type) {
		case *ast.RangeStmt:
			if t := exprType(pkg, loop.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Array, *types.Map:
					return "len(" + renderExpr(loop.X) + ")"
				}
			}
			return ""
		case *ast.ForStmt:
			return forBound(pkg, loop, obj)
		}
	}
	return ""
}

// forBound derives the bound of a for-loop: the canonical counting
// header, or the `for len(x) < k` growth condition on the appended
// slice itself.
func forBound(pkg *Package, loop *ast.ForStmt, obj types.Object) string {
	cond, ok := loop.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return ""
	}
	// `for len(x) < k` on the appended slice: bound is k.
	if call, ok := cond.X.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "len" && isBuiltin(pkg, id) {
			if argID, ok := call.Args[0].(*ast.Ident); ok && identObject(pkg, argID) == obj {
				if boundish(pkg, cond.Y) {
					return renderExpr(cond.Y)
				}
			}
		}
	}
	// Canonical counting loop `for i := 0; i < n; i++`.
	init, ok := loop.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 {
		return ""
	}
	indID, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return ""
	}
	ind := pkg.Info.Defs[indID]
	lhs, ok := cond.X.(*ast.Ident)
	if !ok || ind == nil || pkg.Info.Uses[lhs] != ind {
		return ""
	}
	post, ok := loop.Post.(*ast.IncDecStmt)
	if !ok || post.Tok != token.INC {
		return ""
	}
	if !boundish(pkg, cond.Y) {
		return ""
	}
	return renderExpr(cond.Y)
}

// boundish reports whether e is a usable capacity expression: a
// constant, a plain identifier or selector, or len(…) of one.
func boundish(pkg *Package, e ast.Expr) bool {
	if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil {
		return true // any constant expression
	}
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name != "_"
	case *ast.SelectorExpr:
		return true
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "len" && isBuiltin(pkg, id) && len(e.Args) == 1 {
			return boundish(pkg, e.Args[0])
		}
	}
	return false
}

// signatureVars collects every variable declared in a function
// signature (receiver, parameter, result) of the package — computed
// once so the dataflow transfer function stays cheap.
func signatureVars(pkg *Package) map[types.Object]bool {
	out := make(map[types.Object]bool)
	addList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				addList(fn.Recv)
				addList(fn.Type.Params)
				addList(fn.Type.Results)
			case *ast.FuncLit:
				addList(fn.Type.Params)
				addList(fn.Type.Results)
			}
			return true
		})
	}
	return out
}

// isBodyLocalVar reports whether obj is a slice variable declared in a
// function body: not a struct field, not a signature variable
// (receiver/param/result), not package-level. Only such variables can
// change ownership at a container store — everything else was already
// long-lived or caller-owned.
func isBodyLocalVar(sigVars map[types.Object]bool, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if v.IsField() || sigVars[v] {
		return false
	}
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return false // package scope
	}
	return true
}
