package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// This file builds the whole-program call graph — the substrate of the
// suite's interprocedural analyzers (transitive allocfree,
// ifacedispatch, lockheld, and the -graph debug dump). The v2 layer
// stopped at function boundaries: allocfree could prove "this loop does
// not allocate" but not "…and neither does anything it calls", so a
// `//imc:hotpath` kernel calling an unannotated helper that allocates
// two frames down sailed through. The call graph closes that gap.
//
// Resolution policy (deliberately conservative, never speculative):
//
//   - package-level functions, same-package or cross-package, resolve
//     statically through go/types (Uses);
//   - method calls resolve statically when the receiver's static type
//     is concrete (non-interface) — Go has no subclassing, so a
//     concrete receiver pins the callee exactly;
//   - interface method calls, calls through function values, and
//     method expressions are NOT resolved. Each such site is recorded
//     as a dynamic site on the caller and surfaces as the EffDynamic
//     summary bit — a documented soundness gap (see DESIGN.md §7.3),
//     not a silent one;
//   - function literals are not separate nodes: a literal's body is
//     folded into its enclosing declared function (its effects and
//     call edges are attributed to the function that created it). This
//     over-approximates (the closure may never run);
//   - calls into packages outside the loaded program (the standard
//     library) become external edges, classified by the effect table
//     in summary.go rather than by analyzing their bodies.

// Program is a whole-module view: every loaded package plus the call
// graph and function summaries computed over them. Analyzers reach it
// through Package.Prog; when it is nil (single-fixture loads) the
// interprocedural analyzers degrade to their intra-procedural v2
// behavior or skip entirely.
type Program struct {
	// ModulePath and ModuleDir identify the enclosing module.
	ModulePath string
	ModuleDir  string
	// Packages lists the loaded packages in load order (sorted by dir).
	Packages []*Package
	// Graph is the whole-program call graph.
	Graph *CallGraph
	// LayersPath locates the layering contract (default
	// <module>/internal/lint/layers.txt).
	LayersPath string
	// APISnapPath locates the API-surface snapshot (default
	// <module>/internal/lint/testdata/api.snap).
	APISnapPath string

	// layers caches the parsed layering contract (lazy; see layering.go).
	layers    *layerContract
	layersErr error
	// apiSnap caches the parsed API snapshot (lazy; see apisurface.go).
	apiSnap map[string]map[string]string
	apiErr  error

	// The flag bytes sit together at the tail so they pack into one
	// word instead of each padding out an 8-byte-aligned neighbor (the
	// structlayout analyzer holds the struct to its minimal layout).
	//
	// FullModule records whether the program covers the entire module
	// ("./..."); the apisurface analyzer only runs on full loads, since
	// a partial load cannot distinguish "package removed" from "package
	// not requested".
	FullModule bool
	// layersSet and apiSet record that the lazy caches above are filled.
	layersSet bool
	apiSet    bool
	// apiChecked guards the once-per-program "package removed" pass of
	// the apisurface analyzer.
	apiChecked bool
}

// NewProgram assembles the interprocedural view over pkgs: builds the
// call graph, computes function summaries, and back-links every package
// (pkg.Prog) so per-package analyzer runs can reach program facts.
func NewProgram(modulePath, moduleDir string, pkgs []*Package, fullModule bool) *Program {
	prog := &Program{
		ModulePath:  modulePath,
		ModuleDir:   moduleDir,
		Packages:    pkgs,
		FullModule:  fullModule,
		LayersPath:  filepath.Join(moduleDir, "internal", "lint", "layers.txt"),
		APISnapPath: filepath.Join(moduleDir, "internal", "lint", "testdata", "api.snap"),
	}
	for _, pkg := range pkgs {
		pkg.Prog = prog
	}
	prog.Graph = buildCallGraph(pkgs)
	computeSummaries(prog.Graph)
	return prog
}

// CallGraph is the whole-program call graph over declared functions.
type CallGraph struct {
	// Nodes lists every analyzed function declaration, ordered by
	// package path then source position — the deterministic order every
	// dump and fixed point iterates in.
	Nodes []*FuncNode
	// byName resolves a function's display name to its node. Keying by
	// name instead of *types.Func matters: the loader type-checks each
	// analyzed package independently, so the SAME declared function has
	// distinct type objects in its own package's universe and in every
	// importer's universe. The qualified display name is identical in
	// all of them (Go has no overloading).
	byName map[string]*FuncNode
	// NumEdges counts resolved static call edges; NumDynamic counts
	// unresolved (interface / function-value) call sites; NumSCCs and
	// LargestSCC describe the condensation computed by the summary pass.
	NumEdges   int
	NumDynamic int
	NumSCCs    int
	LargestSCC int
}

// FuncNode is one declared function in the call graph.
type FuncNode struct {
	// Fn is the function's type object.
	Fn *types.Func
	// Decl is the declaration (Body may be nil for assembly stubs).
	Decl *ast.FuncDecl
	// Pkg is the declaring package.
	Pkg *Package
	// Calls lists resolved static call edges in source order.
	Calls []CallEdge
	// Dynamic lists the positions of unresolved call sites (interface
	// dispatch, function values) — the soundness gap, made visible.
	Dynamic []token.Pos
	// Directives holds the //imc: annotations on the declaration.
	Directives map[string]bool
	// Summary is the function's effect summary (set by the summary
	// pass; see summary.go).
	Summary *Summary
}

// Name renders the node as "pkgpath.Func" or "pkgpath.(*Recv).Method".
func (n *FuncNode) Name() string {
	return funcDisplayName(n.Fn)
}

// funcDisplayName renders fn with its receiver, qualified by package.
func funcDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	rt := sig.Recv().Type()
	ptr := ""
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
		ptr = "*"
	}
	recv := "?"
	if named, ok := rt.(*types.Named); ok {
		recv = named.Obj().Name()
	}
	return fn.Pkg().Path() + ".(" + ptr + recv + ")." + fn.Name()
}

// recvTypeName returns the name of fn's receiver's named type (pointer
// dereferenced), or "" for package-level functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// CallEdge is one resolved call site.
type CallEdge struct {
	// Site is the call expression (positions point here in findings).
	Site *ast.CallExpr
	// Callee is the in-program target, nil for external (stdlib) calls.
	Callee *FuncNode
	// ExtPkg/ExtName identify an external callee ("math", "Log") when
	// Callee is nil. ExtRecv is the external callee's receiver type name
	// ("WaitGroup" for (*sync.WaitGroup).Wait), empty for package-level
	// functions — the blocking-op table needs it to tell WaitGroup.Wait
	// (parks while holding) from Cond.Wait (releases its mutex).
	ExtPkg  string
	ExtName string
	ExtRecv string
}

// Node returns the graph node for fn, or nil when fn is not a declared
// function of the program (external, interface method, …).
func (g *CallGraph) Node(fn *types.Func) *FuncNode {
	if g == nil || fn == nil || fn.Pkg() == nil {
		return nil
	}
	return g.byName[funcDisplayName(fn)]
}

// buildCallGraph walks every function declaration of every package and
// resolves its call sites.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{byName: make(map[string]*FuncNode)}
	// First pass: create nodes so cross-package edges resolve in any
	// package order.
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		dirs := funcDirectives(pkg)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg, Directives: dirs[fd]}
				g.Nodes = append(g.Nodes, node)
				g.byName[funcDisplayName(fn)] = node
			}
		}
	}
	sort.Slice(g.Nodes, func(i, j int) bool {
		a, b := g.Nodes[i], g.Nodes[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		pa, pb := a.Pkg.Fset.Position(a.Decl.Pos()), b.Pkg.Fset.Position(b.Decl.Pos())
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		return pa.Offset < pb.Offset
	})
	// Second pass: resolve call sites. Nested function literals are NOT
	// pruned — their calls fold into the enclosing declaration.
	for _, node := range g.Nodes {
		if node.Decl.Body == nil {
			continue
		}
		pkg := node.Pkg
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch res := resolveCall(pkg, call); res.kind {
			case callStatic:
				if callee := g.byName[funcDisplayName(res.fn)]; callee != nil {
					node.Calls = append(node.Calls, CallEdge{Site: call, Callee: callee})
					g.NumEdges++
				} else {
					node.Calls = append(node.Calls, CallEdge{
						Site: call, ExtPkg: res.fn.Pkg().Path(), ExtName: res.fn.Name(),
						ExtRecv: recvTypeName(res.fn),
					})
					g.NumEdges++
				}
			case callDynamic:
				node.Dynamic = append(node.Dynamic, call.Pos())
				g.NumDynamic++
			}
			return true
		})
	}
	return g
}

// callKind classifies one call site's resolution.
type callKind int

const (
	// callIgnored: builtin, conversion, or unresolvable-without-types —
	// no edge, no dynamic site.
	callIgnored callKind = iota
	// callStatic: resolved to a specific *types.Func.
	callStatic
	// callDynamic: interface dispatch or function value.
	callDynamic
)

type callResolution struct {
	kind callKind
	fn   *types.Func
}

// resolveCall classifies call's callee. Universe functions (error.Error
// has no package) are ignored rather than treated as dynamic.
func resolveCall(pkg *Package, call *ast.CallExpr) callResolution {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation f[T](…) wraps the callee in an index expr.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		obj := identObject(pkg, fun)
		switch obj := obj.(type) {
		case *types.Func:
			if obj.Pkg() == nil {
				return callResolution{kind: callIgnored}
			}
			return callResolution{kind: callStatic, fn: obj}
		case *types.Builtin, *types.TypeName, nil:
			return callResolution{kind: callIgnored}
		default:
			// A variable holding a func value.
			return callResolution{kind: callDynamic}
		}
	case *ast.SelectorExpr:
		if pkg.Info == nil {
			return callResolution{kind: callIgnored}
		}
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return callResolution{kind: callDynamic}
			}
			if fn, ok := sel.Obj().(*types.Func); ok && fn.Pkg() != nil {
				return callResolution{kind: callStatic, fn: fn}
			}
			// Selecting a func-typed field and calling it.
			return callResolution{kind: callDynamic}
		}
		// Qualified identifier: pkg.Fn, or a conversion pkg.T(x).
		obj := identObject(pkg, fun.Sel)
		switch obj := obj.(type) {
		case *types.Func:
			if obj.Pkg() == nil {
				return callResolution{kind: callIgnored}
			}
			return callResolution{kind: callStatic, fn: obj}
		case *types.TypeName, nil:
			return callResolution{kind: callIgnored}
		default:
			return callResolution{kind: callDynamic}
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: its body is folded into the
		// enclosing function, so the call itself carries no extra fact.
		return callResolution{kind: callIgnored}
	default:
		// Method expressions, type asserts producing funcs, etc.
		return callResolution{kind: callDynamic}
	}
}

// Stats summarizes the graph for the -graph dump and the JSON findings
// artifact.
type CallGraphStats struct {
	Nodes        int `json:"nodes"`
	Edges        int `json:"edges"`
	DynamicSites int `json:"dynamicSites"`
	SCCs         int `json:"sccs"`
	LargestSCC   int `json:"largestSCC"`
}

// Stats returns the graph's node/edge/SCC counts.
func (g *CallGraph) Stats() CallGraphStats {
	if g == nil {
		return CallGraphStats{}
	}
	return CallGraphStats{
		Nodes:        len(g.Nodes),
		Edges:        g.NumEdges,
		DynamicSites: g.NumDynamic,
		SCCs:         g.NumSCCs,
		LargestSCC:   g.LargestSCC,
	}
}

// Dump renders the graph for `imclint -graph`: a stats header followed
// by one line per function listing its resolved callees (deduplicated,
// external callees included) and its effect summary. Deterministic.
func (g *CallGraph) Dump(w *strings.Builder) {
	s := g.Stats()
	w.WriteString("callgraph:")
	w.WriteString(" nodes=")
	writeInt(w, s.Nodes)
	w.WriteString(" edges=")
	writeInt(w, s.Edges)
	w.WriteString(" dynamic=")
	writeInt(w, s.DynamicSites)
	w.WriteString(" sccs=")
	writeInt(w, s.SCCs)
	w.WriteString(" largest-scc=")
	writeInt(w, s.LargestSCC)
	w.WriteString("\n")
	for _, node := range g.Nodes {
		w.WriteString(node.Name())
		if node.Summary != nil && node.Summary.Effects != 0 {
			w.WriteString(" [")
			w.WriteString(node.Summary.Effects.String())
			w.WriteString("]")
		}
		seen := make(map[string]bool)
		callees := make([]string, 0, len(node.Calls))
		for _, e := range node.Calls {
			name := ""
			if e.Callee != nil {
				name = e.Callee.Name()
			} else {
				name = e.ExtPkg + "." + e.ExtName
			}
			if !seen[name] {
				seen[name] = true
				callees = append(callees, name)
			}
		}
		sort.Strings(callees)
		for _, c := range callees {
			w.WriteString("\n\t-> ")
			w.WriteString(c)
		}
		if len(node.Dynamic) > 0 {
			w.WriteString("\n\t-> <dynamic x")
			writeInt(w, len(node.Dynamic))
			w.WriteString(">")
		}
		w.WriteString("\n")
	}
}

// writeInt appends a base-10 integer without fmt (keeps Dump cheap).
func writeInt(w *strings.Builder, v int) {
	var buf [20]byte
	i := len(buf)
	if v == 0 {
		w.WriteByte('0')
		return
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	w.Write(buf[i:])
}
