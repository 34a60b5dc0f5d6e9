package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file holds the helpers shared by the performance-contract
// analyzers (hotpath, ifacedispatch, and the layout checks). They
// enforce properties of `//imc:hotpath` functions — the RIC/RIS
// sampling kernels and the MAXR marginal-gain scans — where the paper's
// cost concentrates, reusing loop membership from the CFG (cfg.go),
// callee reachability from the call graph (callgraph.go), and
// transitive effects from the summaries (summary.go).

// hotFuncDecls returns the `//imc:hotpath` function declarations of the
// package in file/source order — the deterministic iteration order all
// perf-contract analyzers report in.
func hotFuncDecls(pkg *Package) []*ast.FuncDecl {
	dirs := funcDirectives(pkg)
	out := make([]*ast.FuncDecl, 0, len(dirs))
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(dirs, fd, directiveHotPath) {
				continue
			}
			out = append(out, fd)
		}
	}
	return out
}

// loopStmts returns the statements (and header expressions) of fd's
// body that execute once per iteration of some loop — CFG blocks with
// LoopDepth ≥ 1, minus the rangeBind markers (the ranged-over
// expression itself was placed, and is checked, at the outer depth).
func loopStmts(cfg *CFG) []ast.Node {
	n := 0
	for _, blk := range cfg.Blocks {
		if blk.LoopDepth >= 1 {
			n += len(blk.Stmts)
		}
	}
	out := make([]ast.Node, 0, n)
	for _, blk := range cfg.Blocks {
		if blk.LoopDepth < 1 {
			continue
		}
		for _, stmt := range blk.Stmts {
			if _, ok := stmt.(rangeBind); ok {
				continue
			}
			out = append(out, stmt)
		}
	}
	return out
}

// loopCallEdges maps the in-loop statements back to fd's resolved call
// edges, in source order — the edge set transitive perf contracts are
// checked against. Function-literal interiors are pruned: a closure's
// body runs on its own schedule. Returns nil outside a whole-program
// load.
func loopCallEdges(pkg *Package, fd *ast.FuncDecl, inLoop []ast.Node) []*CallEdge {
	if pkg.Prog == nil || pkg.Info == nil {
		return nil
	}
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	node := pkg.Prog.Graph.Node(fn)
	if node == nil {
		return nil
	}
	edgeAt := make(map[*ast.CallExpr]*CallEdge, len(node.Calls))
	for i := range node.Calls {
		edgeAt[node.Calls[i].Site] = &node.Calls[i]
	}
	seen := make(map[*CallEdge]bool)
	var edges []*CallEdge
	for _, stmt := range inLoop {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if e := edgeAt[call]; e != nil && !seen[e] {
					seen[e] = true
					edges = append(edges, e)
				}
			}
			return true
		})
	}
	return edges
}

// ctxParamObjects returns fd's parameters of type context.Context. The
// ctx-first / longrun contract (ctxplumb) REQUIRES long-running hot
// kernels to carry a context and poll it in batches, so perf-contract
// analyzers exempt the ctx parameter and calls through it — the poll
// idiom (`t & (ctxPollBatch-1) == 0`) amortizes its dispatch to nothing.
func ctxParamObjects(pkg *Package, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if pkg.Info == nil || fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pkg.Info.Defs[name]
			if obj != nil && isContextTyped(obj.Type()) {
				out[obj] = true
			}
		}
	}
	return out
}

// isContextTyped reports whether t is context.Context.
func isContextTyped(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" &&
		obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// paramTypeAt returns the declared parameter type that the i-th
// argument of a call to sig lands in, unwrapping the variadic slice's
// element type. Nil when the call shape doesn't line up (e.g. f(g())
// tuple spreading, which no hot path uses).
func paramTypeAt(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	switch {
	case sig.Variadic() && i >= params.Len()-1:
		if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
			return s.Elem()
		}
	case i < params.Len():
		return params.At(i).Type()
	}
	return nil
}

// renderExpr prints an expression the way the source spells it — the
// form perf-contract findings quote so the reader can grep for the
// site.
func renderExpr(e ast.Expr) string {
	return types.ExprString(e)
}

// implementerNames lists the module's concrete types that provide every
// method of iface, as "pkg.Type" (package base name), sorted, capped at
// three — the devirtualization candidates ifacedispatch names. The
// match is by method-name superset over the call graph's declared
// methods: the loader type-checks each package in its own universe, so
// nominal types.Implements checks cannot cross packages; a name-set
// match is the deterministic, universe-independent approximation.
func implementerNames(prog *Program, iface *types.Interface) []string {
	if prog == nil || iface == nil || iface.NumMethods() == 0 {
		return nil
	}
	want := make(map[string]bool, iface.NumMethods())
	for i := 0; i < iface.NumMethods(); i++ {
		want[iface.Method(i).Name()] = true
	}
	// Group declared methods by receiver type.
	methods := make(map[string]map[string]bool)
	for _, node := range prog.Graph.Nodes {
		recv := recvTypeName(node.Fn)
		if recv == "" {
			continue
		}
		base := node.Pkg.Path
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		key := base + "." + recv
		if methods[key] == nil {
			methods[key] = make(map[string]bool)
		}
		methods[key][node.Fn.Name()] = true
	}
	var out []string
	for key, have := range methods {
		all := true
		for m := range want {
			if !have[m] {
				all = false
				break
			}
		}
		if all {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	if len(out) > 3 {
		out = append(out[:3], "…")
	}
	return out
}
