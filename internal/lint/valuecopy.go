package lint

import (
	"go/ast"
	"go/types"
)

// ValueCopy flags the memmove traffic escape analysis cannot see: big
// struct values copied wholesale inside `//imc:hotpath` functions.
// hotpath polices the pointer side (values boxed onto the heap);
// valuecopy polices the value side (bytes moved per iteration). Three
// shapes fire, each finding carrying the byte size under the canonical
// layout model and the loop depth it executes at:
//
//  1. range-by-value: `for _, v := range s` where s's elements are
//     structs of at least valueCopyThreshold bytes — every iteration
//     memmoves the element into v; range by index and take &s[i];
//
//  2. pass-by-value in a loop: a call at loop depth ≥ 1 whose argument
//     lands in a struct parameter of at least the threshold (including
//     big value receivers on method calls); pass a pointer;
//
//  3. interface boxing of big values: a call argument or assignment at
//     loop depth ≥ 1 that converts a struct of at least the threshold
//     into an interface — a copy plus a likely allocation per
//     iteration; pass a pointer or prebuild the interface value once.
//
// The threshold is deliberately above the kernels' pooled entry types
// (ric.Sample is 16 bytes; copying it beats chasing a pointer): only
// copies big enough to out-cost an indirection fire.
var ValueCopy = &Analyzer{
	Name: "valuecopy",
	Doc:  "flag range-by-value, pass-by-value, and interface boxing of large structs inside //imc:hotpath functions, with byte size and loop depth",
	Kind: KindFlowSensitive,
	Run:  runValueCopy,
}

// valueCopyThreshold is the struct size (bytes) from which a copy per
// iteration costs more than the pointer indirection that avoids it.
const valueCopyThreshold = 64

func runValueCopy(pkg *Package, r *Reporter) {
	if pkg.Info == nil {
		return
	}
	for _, fd := range hotFuncDecls(pkg) {
		checkValueCopy(pkg, fd, r)
	}
}

// bigStructSize returns t's size when t is a struct (or named struct)
// of at least the threshold, else -1.
func bigStructSize(t types.Type) int64 {
	if t == nil {
		return -1
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok || !sizeableType(st) {
		return -1
	}
	if sz := layoutSizes.Sizeof(st); sz >= valueCopyThreshold {
		return sz
	}
	return -1
}

func checkValueCopy(pkg *Package, fd *ast.FuncDecl, r *Reporter) {
	cfg := BuildCFG(fd.Body)
	depthOf := func(n ast.Node) int {
		if d, ok := cfg.NodeLoopDepth(n); ok {
			return d
		}
		return 0
	}

	// Shape 1: range-by-value, at any depth — the range is its own loop.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		val, ok := rs.Value.(*ast.Ident)
		if !ok || val.Name == "_" {
			return true
		}
		rt := exprType(pkg, rs.X)
		if rt == nil {
			return true
		}
		var elem types.Type
		switch u := rt.Underlying().(type) {
		case *types.Slice:
			elem = u.Elem()
		case *types.Array:
			elem = u.Elem()
		default:
			return true
		}
		if sz := bigStructSize(elem); sz >= 0 {
			r.Reportf("valuecopy", rs.Pos(),
				"range copies a %d-byte %s into %s on every iteration (loop depth %d); range by index and use &%s[i], or range over a []*T",
				sz, elem.String(), val.Name, depthOf(rs), renderExpr(rs.X))
		}
		return true
	})

	// Shapes 2 and 3 fire per call/assignment executed inside a loop.
	for _, stmt := range loopStmts(cfg) {
		depth, _ := cfg.NodeLoopDepth(stmt)
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				checkCallCopies(pkg, n, depth, r)
			case *ast.AssignStmt:
				checkAssignBoxing(pkg, n, depth, r)
			}
			return true
		})
	}
}

// checkCallCopies inspects one in-loop call for big-struct arguments
// landing in value parameters (shape 2) or interface parameters
// (shape 3), plus big value receivers.
func checkCallCopies(pkg *Package, call *ast.CallExpr, depth int, r *Reporter) {
	ft := exprType(pkg, call.Fun)
	sig, ok := ft.(*types.Signature)
	if !ok {
		return // builtin, conversion, or unresolved
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i)
		if pt == nil {
			continue
		}
		at := exprType(pkg, arg)
		if _, isIface := pt.Underlying().(*types.Interface); isIface {
			if sz := bigStructSize(at); sz >= 0 {
				r.Reportf("valuecopy", arg.Pos(),
					"boxes a %d-byte %s into %s per call at loop depth %d — a copy and usually an allocation per iteration; pass a pointer or prebuild the interface value outside the loop",
					sz, at.String(), pt.String(), depth)
			}
			continue
		}
		if sz := bigStructSize(pt); sz >= 0 {
			r.Reportf("valuecopy", arg.Pos(),
				"passes a %d-byte %s by value at loop depth %d; pass a pointer",
				sz, pt.String(), depth)
		}
	}
	// Big value receiver: the hidden first argument.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if msig, ok := s.Obj().Type().(*types.Signature); ok && msig.Recv() != nil {
				if sz := bigStructSize(msig.Recv().Type()); sz >= 0 {
					r.Reportf("valuecopy", call.Pos(),
						"calls %s on a %d-byte value receiver at loop depth %d — the receiver is copied per call; use a pointer receiver",
						s.Obj().Name(), sz, depth)
				}
			}
		}
	}
}

// checkAssignBoxing is shape 3's assignment form: storing a big struct
// into an interface-typed variable inside a loop.
func checkAssignBoxing(pkg *Package, as *ast.AssignStmt, depth int, r *Reporter) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := exprType(pkg, lhs)
		if lt == nil {
			continue
		}
		if _, isIface := lt.Underlying().(*types.Interface); !isIface {
			continue
		}
		if sz := bigStructSize(exprType(pkg, as.Rhs[i])); sz >= 0 {
			r.Reportf("valuecopy", as.Rhs[i].Pos(),
				"boxes a %d-byte %s into %s per iteration at loop depth %d; store a pointer or hoist the conversion out of the loop",
				sz, exprType(pkg, as.Rhs[i]).String(), lt.String(), depth)
		}
	}
}
