package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// IfaceDispatch enforces the static-dispatch contract on hot paths:
// inside an `//imc:hotpath` function's loops, every call should bind
// at compile time, because a dynamic call blocks inlining AND every
// optimization the other perf contracts assume behind it (escape
// analysis, bounds-check elimination through the callee). Four
// patterns fire:
//
//   - an interface-typed PARAMETER on a hot function: every method
//     call through it anywhere in the body dispatches dynamically —
//     the signature itself gives the concrete type away;
//   - a dynamic method call in a hot loop (interface dispatch), with
//     the module's concrete implementers of the interface named as
//     devirtualization candidates via the call graph;
//   - a call through a function VALUE in a hot loop;
//   - an argument that converts a concrete value to a non-empty
//     interface parameter at a hot-loop call site — the callee
//     dispatches on it even though this function does not (the
//     container/heap shape: Push(h heap.Interface, x any));
//   - transitively: a statically-resolved in-loop callee whose effect
//     summary carries EffDynamic, reported with the v3 witness chain.
//
// Sanctioned and exempt: context.Context. The ctx-first contract
// (ctxplumb) REQUIRES long-running kernels to take ctx and poll
// ctx.Err() in batches of ctxPollBatch; the poll's dispatch cost is
// amortized to nothing, so ctx parameters and calls through them never
// fire. Dynamic sites reached through deeper callees remain visible as
// the EffDynamic bit in `imclint -graph` even where this analyzer
// stays quiet.
var IfaceDispatch = &Analyzer{
	Name: "ifacedispatch",
	Doc:  "forbid dynamic dispatch on hot paths (interface-typed parameters, interface method calls, function-value calls, concrete→interface argument conversions, dynamic callees reached transitively), naming devirtualization candidates",
	Kind: KindInterprocedural,
	Run:  runIfaceDispatch,
}

func runIfaceDispatch(pkg *Package, r *Reporter) {
	for _, fd := range hotFuncDecls(pkg) {
		checkIfaceDispatch(pkg, fd, r)
	}
}

func checkIfaceDispatch(pkg *Package, fd *ast.FuncDecl, r *Reporter) {
	if pkg.Info == nil {
		return
	}
	ctxParams := ctxParamObjects(pkg, fd)
	checkIfaceParams(pkg, fd, ctxParams, r)

	cfg := BuildCFG(fd.Body)
	inLoop := loopStmts(cfg)
	for _, stmt := range inLoop {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch res := resolveCall(pkg, call); res.kind {
			case callDynamic:
				checkDynamicSite(pkg, fd, call, ctxParams, r)
			case callStatic:
				checkIfaceArgs(pkg, call, r)
			}
			return true
		})
	}

	// Transitive: in-loop static callees that dispatch somewhere down
	// their call tree.
	edges := loopCallEdges(pkg, fd, inLoop)
	for _, v := range walkContract(pkg, edges, EffDynamic, directiveHotPath) {
		r.Reportf("ifacedispatch", v.Edge.Site.Pos(),
			"call in a hot loop reaches a dynamic dispatch transitively: %s → %s (%s at %s); devirtualize the chain or annotate the callee //imc:hotpath",
			fd.Name.Name, formatChain(v.Chain), v.Desc, shortPos(v.Pos))
	}
}

// checkIfaceParams is the signature-level pattern: interface-typed
// parameters on the hot function itself.
func checkIfaceParams(pkg *Package, fd *ast.FuncDecl, ctxParams map[types.Object]bool, r *Reporter) {
	if fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pkg.Info.Defs[name]
			if obj == nil || ctxParams[obj] {
				continue
			}
			iface, ok := obj.Type().Underlying().(*types.Interface)
			if !ok || iface.NumMethods() == 0 {
				continue // empty interface: nothing dispatches (boxing is allocfree's)
			}
			msg := "hot function takes interface-typed parameter %s %s; every method call through it dispatches dynamically — accept the concrete type"
			if cands := implementerNames(pkg.Prog, iface); len(cands) > 0 {
				msg += " (concrete implementers in this module: " + strings.Join(cands, ", ") + ")"
			}
			r.Reportf("ifacedispatch", name.Pos(), msg, obj.Name(), renderExpr(field.Type))
		}
	}
}

// checkDynamicSite classifies one unresolved call in a hot loop:
// interface method dispatch (with devirtualization candidates) or a
// function-value call.
func checkDynamicSite(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr, ctxParams map[types.Object]bool, r *Reporter) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			recv := s.Recv()
			if iface, isIface := recv.Underlying().(*types.Interface); isIface {
				// The sanctioned ctx.Err() batch poll.
				if base, ok := sel.X.(*ast.Ident); ok && ctxParams[pkg.Info.Uses[base]] {
					return
				}
				msg := "dynamic method call %s.%s in a hot loop cannot be devirtualized or inlined"
				if cands := implementerNames(pkg.Prog, iface); len(cands) > 0 {
					msg += " (concrete implementers in this module: " + strings.Join(cands, ", ") + ")"
				}
				msg += "; accept or assert the concrete type on the hot path"
				r.Reportf("ifacedispatch", call.Pos(), msg, renderExpr(sel.X), sel.Sel.Name)
				return
			}
		}
	}
	r.Reportf("ifacedispatch", call.Pos(),
		"call through function value %s in a hot loop dispatches dynamically and cannot inline; call the function directly or hoist the indirection out of the loop",
		renderExpr(call.Fun))
}

// checkIfaceArgs is the conversion pattern: a statically-bound call
// whose arguments cross into non-empty interface parameters. The
// caller's own call is static, but the callee will dispatch on what it
// was handed — the container/heap cost model. Empty interfaces carry
// no methods to dispatch; they are allocfree's boxing finding instead.
func checkIfaceArgs(pkg *Package, call *ast.CallExpr, r *Reporter) {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i)
		if pt == nil {
			continue
		}
		iface, ok := pt.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 || isContextTyped(pt) {
			continue
		}
		at, ok := pkg.Info.Types[arg]
		if !ok || at.Type == nil || at.IsNil() {
			continue
		}
		if _, argIsIface := at.Type.Underlying().(*types.Interface); argIsIface {
			continue // already an interface: the conversion happened elsewhere
		}
		r.Reportf("ifacedispatch", arg.Pos(),
			"argument %s converts concrete %s to interface %s at a hot-loop call; the callee dispatches dynamically on it — use a concrete implementation on the hot path",
			renderExpr(arg), at.Type, pt)
	}
}
