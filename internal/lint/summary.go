package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes bottom-up function summaries over the call graph:
// for every declared function, a conservative "may" lattice of effects
// (allocates, calls through dynamic dispatch, may block) closed under
// the transitive-callee relation. The computation condenses the graph into
// strongly connected components (iterative Tarjan) and propagates in
// reverse topological order, iterating each SCC to a fixed point —
// effects only ever grow, so convergence is immediate for acyclic
// regions and takes at most |SCC| rounds inside recursion cycles.
//
// Each inherited effect remembers the call edge it arrived through, so
// enforcement findings can print the offending call chain
// ("Add → helper → make([]T, n) at file:line") instead of a bare
// "callee is dirty" verdict.

// Effect is one bit of a function's may-effect summary.
type Effect uint32

const (
	// EffAlloc: the function may allocate (make/new, slice or map
	// literals, closures, string concatenation, interface boxing, or
	// append to a slice that is not recognized amortized scratch).
	EffAlloc Effect = 1 << iota
	// EffDynamic: the function makes a call the graph cannot resolve
	// (interface dispatch or a function value) — its true effect set is
	// unknown past that point.
	EffDynamic
	// EffBlock: the function may block indefinitely — a channel send or
	// receive outside a select-with-default, a select without a default
	// clause, file/network IO that can stall on the kernel, or
	// time.Sleep. Lock ACQUISITION is deliberately not EffBlock, and
	// neither are dynamic calls (EffDynamic already marks the unknown;
	// treating it as blocking would flag every clock-function field
	// call). The lockheld analyzer consumes this bit.
	EffBlock
)

// effectNames order the String rendering.
var effectNames = []struct {
	bit  Effect
	name string
}{
	{EffAlloc, "alloc"},
	{EffDynamic, "dynamic"},
	{EffBlock, "block"},
}

// String renders the set as "alloc|io|…".
func (e Effect) String() string {
	if e == 0 {
		return "none"
	}
	parts := make([]string, 0, len(effectNames))
	for _, n := range effectNames {
		if e&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, "|")
}

// Evidence explains why one effect bit is set: either a local construct
// (Via == nil; Pos/Desc point at it) or an inherited effect (Via is the
// callee it came through; Pos is the call site in THIS function).
type Evidence struct {
	Pos  token.Pos
	Desc string
	Via  *FuncNode
}

// Summary is one function's effect summary.
type Summary struct {
	// Effects is the transitive may-effect set.
	Effects Effect
	// evidence records, per effect bit, the first explanation found.
	evidence map[Effect]*Evidence
}

// EvidenceFor returns the stored explanation for one effect bit.
func (s *Summary) EvidenceFor(e Effect) *Evidence {
	if s == nil {
		return nil
	}
	return s.evidence[e]
}

// computeSummaries fills node.Summary for every graph node: local
// effects first, then SCC-condensed bottom-up propagation.
func computeSummaries(g *CallGraph) {
	scratchByPkg := make(map[*Package]map[types.Object]bool)
	for _, node := range g.Nodes {
		scratch := scratchByPkg[node.Pkg]
		if scratch == nil {
			scratch = packageScratchFields(node.Pkg)
			scratchByPkg[node.Pkg] = scratch
		}
		node.Summary = localSummary(node, scratch)
	}
	sccs := tarjanSCC(g)
	g.NumSCCs = len(sccs)
	for _, scc := range sccs {
		if len(scc) > g.LargestSCC {
			g.LargestSCC = len(scc)
		}
	}
	// Tarjan emits SCCs callees-first (reverse topological order of the
	// condensation), so a single in-order pass with an inner fixed
	// point settles everything.
	for _, scc := range sccs {
		for changed := true; changed; {
			changed = false
			for _, node := range scc {
				for i := range node.Calls {
					edge := &node.Calls[i]
					var inherited Effect
					var calleeName string
					if edge.Callee != nil {
						inherited = edge.Callee.Summary.Effects
						calleeName = edge.Callee.Name()
					} else {
						inherited, calleeName = externalEffects(edge.ExtPkg, edge.ExtRecv, edge.ExtName)
					}
					newBits := inherited &^ node.Summary.Effects
					if newBits == 0 {
						continue
					}
					node.Summary.Effects |= newBits
					changed = true
					for _, en := range effectNames {
						if newBits&en.bit == 0 {
							continue
						}
						ev := &Evidence{Pos: edge.Site.Pos(), Via: edge.Callee}
						if edge.Callee == nil {
							ev.Desc = "calls " + calleeName
						}
						node.Summary.evidence[en.bit] = ev
					}
				}
			}
		}
	}
}

// --- external (out-of-program) callee classification -------------------

// cleanStdlib lists import paths whose entire API is, for our purposes,
// allocation-free and side-effect-free. Kept deliberately tiny: adding
// a package here is a policy decision, not a convenience.
var cleanStdlib = map[string]bool{
	"math":      true,
	"math/bits": true,
}

// externalEffects classifies a call into a package outside the loaded
// program. Unknown packages default to "may allocate" — the safe
// assumption for hot-path enforcement. recv is the callee's receiver
// type name ("WaitGroup" for (*sync.WaitGroup).Wait), empty for
// package-level functions.
func externalEffects(pkgPath, recv, name string) (Effect, string) {
	display := pkgPath + "." + name
	var block Effect
	if externalBlocks(pkgPath, recv, name) {
		block = EffBlock
	}
	switch {
	case cleanStdlib[pkgPath]:
		return 0, display
	case pkgPath == "sync" || pkgPath == "sync/atomic":
		return block, display
	default:
		return EffAlloc | block, display
	}
}

// externalBlocks is the blocking-op table for out-of-program callees:
// which stdlib calls can stall the calling goroutine indefinitely (or
// long enough to matter under a held mutex). Curated, not exhaustive —
// the policy mirrors externalEffects: network and syscall packages
// wholesale, file operations by name, the sleep/flush/copy helpers that
// hide IO. Deliberate exclusions, each a policy decision:
//
//   - sync.Mutex.Lock and friends: flagging every nested acquisition
//     as "blocking" would bury the real stalls in noise.
//   - sync.Cond.Wait: the sanctioned wait-under-mutex idiom — Wait
//     atomically releases the mutex while parked, so "blocks while
//     holding" is exactly wrong. WaitGroup.Wait, by contrast, parks
//     while genuinely holding whatever the caller holds.
//   - encoding/json and other pure-compute packages: CPU under a lock
//     is a throughput question, not a liveness one.
func externalBlocks(pkgPath, recv, name string) bool {
	switch pkgPath {
	case "net", "net/http", "syscall":
		return true
	case "time":
		return name == "Sleep"
	case "os":
		switch name {
		case "Sync", "Write", "WriteString", "WriteAt", "Read", "ReadAt", "ReadFrom",
			"Open", "OpenFile", "Create", "CreateTemp", "ReadFile", "WriteFile",
			"Rename", "Remove", "RemoveAll", "Truncate", "Mkdir", "MkdirAll",
			"MkdirTemp", "Stat", "Lstat", "ReadDir", "Close", "Seek":
			return true
		}
		return false
	case "io":
		switch name {
		case "Copy", "CopyN", "CopyBuffer", "ReadAll", "ReadFull", "ReadAtLeast", "WriteString":
			return true
		}
		return false
	case "bufio":
		switch name {
		case "Flush", "Write", "WriteString", "WriteByte", "WriteRune",
			"Read", "ReadByte", "ReadBytes", "ReadString", "ReadLine", "ReadSlice", "ReadRune":
			return true
		}
		return false
	case "log", "log/slog":
		// Every emit path ends in a serialized write to the sink.
		return true
	case "sync":
		return name == "Wait" && recv != "Cond"
	}
	return false
}

// --- local effect detection --------------------------------------------

// localSummary scans one function body (nested literals included) for
// directly-evidenced effects. scratch is the package-wide sanctioned
// scratch-field set; function-local scratch slices are unioned in.
func localSummary(node *FuncNode, scratch map[types.Object]bool) *Summary {
	s := &Summary{evidence: make(map[Effect]*Evidence)}
	if node.Decl.Body == nil {
		// Unanalyzable body (assembly): assume the worst.
		s.add(EffAlloc|EffDynamic, node.Decl.Pos(), "has no analyzable body")
		return s
	}
	pkg := node.Pkg
	local := scratchSlices(pkg, node.Decl.Body)
	isScratch := func(obj types.Object) bool {
		return obj != nil && (local[obj] || scratch[obj])
	}
	comms := selectCommOps(node.Decl.Body)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			s.add(EffAlloc, n.Pos(), "allocates a closure")
			return true // fold the literal's body in
		case *ast.CallExpr:
			localCallEffects(pkg, n, s, isScratch)
		case *ast.CompositeLit:
			if pkg.Info != nil {
				if tv, ok := pkg.Info.Types[n]; ok && tv.Type != nil {
					switch tv.Type.Underlying().(type) {
					case *types.Slice:
						s.add(EffAlloc, n.Pos(), "allocates a slice literal")
					case *types.Map:
						s.add(EffAlloc, n.Pos(), "allocates a map literal")
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(pkg, n.X) {
				s.add(EffAlloc, n.OpPos, "concatenates strings")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(pkg, n.Lhs[0]) {
				s.add(EffAlloc, n.TokPos, "concatenates strings (+=)")
			}
		case *ast.SendStmt:
			if !comms[n] {
				s.add(EffBlock, n.Pos(), "blocks on a channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !comms[n] {
				s.add(EffBlock, n.Pos(), "blocks on a channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				s.add(EffBlock, n.Pos(), "blocks in a select without a default case")
			}
		}
		return true
	})
	return s
}

// selectCommOps collects the channel-operation nodes (SendStmt, ARROW
// receives) that appear as the communication clause of a select inside
// body. A comm op only fires when its select picks it, and a select
// with a default never blocks — so these nodes are excluded from the
// per-op EffBlock evidence (the SelectStmt itself carries the blocking
// verdict).
func selectCommOps(body ast.Node) map[ast.Node]bool {
	comms := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				comms[comm] = true
			case *ast.ExprStmt:
				if ue, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
					comms[ue] = true
				}
			case *ast.AssignStmt:
				for _, rhs := range comm.Rhs {
					if ue, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
						comms[ue] = true
					}
				}
			}
		}
		return true
	})
	return comms
}

// selectHasDefault reports whether sel carries a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// add records an effect with local evidence (first occurrence wins, so
// chains point at the earliest construct in source order).
func (s *Summary) add(e Effect, pos token.Pos, desc string) {
	for _, en := range effectNames {
		if e&en.bit == 0 {
			continue
		}
		if s.Effects&en.bit == 0 {
			s.Effects |= en.bit
			s.evidence[en.bit] = &Evidence{Pos: pos, Desc: desc}
		}
	}
}

// localCallEffects classifies one call expression's direct effects:
// allocating builtins, boxing at the call boundary, and dynamic
// dispatch. Static in-program callees contribute nothing here —
// their effects arrive through propagation.
func localCallEffects(pkg *Package, call *ast.CallExpr, s *Summary, isScratch func(types.Object) bool) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && isBuiltin(pkg, id) {
		switch id.Name {
		case "make":
			s.add(EffAlloc, call.Pos(), "calls make")
		case "new":
			s.add(EffAlloc, call.Pos(), "calls new")
		case "append":
			if len(call.Args) > 0 && !isScratch(sliceBaseObject(pkg, call.Args[0])) {
				s.add(EffAlloc, call.Pos(), "appends to a non-scratch slice")
			}
		}
		return
	}
	for _, arg := range boxedArgs(pkg, call) {
		if tv, ok := pkg.Info.Types[arg]; ok && tv.Type != nil {
			s.add(EffAlloc, arg.Pos(), fmt.Sprintf("boxes a %s into an interface", tv.Type))
		}
	}
	if res := resolveCall(pkg, call); res.kind == callDynamic {
		s.add(EffDynamic, call.Pos(), "makes a dynamic call (function value or interface method)")
	}
}

// boxedArgs returns the call arguments whose concrete non-pointer types
// are converted to interface parameters — each such pass copies the
// value to the heap. Shared by the intra allocfree pass and summaries.
func boxedArgs(pkg *Package, call *ast.CallExpr) []ast.Expr {
	if pkg.Info == nil {
		return nil
	}
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	params := sig.Params()
	out := make([]ast.Expr, 0, len(call.Args))
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := pkg.Info.Types[arg]
		if !ok || at.Type == nil || at.IsNil() {
			continue
		}
		if boxingAllocates(at.Type) {
			out = append(out, arg)
		}
	}
	return out
}

// packageScratchFields collects the struct-field objects sanctioned as
// amortized scratch anywhere in the package: fields reset with
// `x.f = x.f[:0]`, fields assigned a 3-argument make, and fields
// initialized with a 3-argument make (or a [:0] reslice) inside a
// composite literal. A field sanctioned in one function (typically the
// constructor, which sizes it) is trusted in every other — growth of a
// capacity-bounded or epoch-reset buffer amortizes to zero allocations
// regardless of which method appends to it.
func packageScratchFields(pkg *Package) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if pkg.Info == nil {
		return out
	}
	sanctionedRHS := func(rhs ast.Expr) bool {
		if se, ok := rhs.(*ast.SliceExpr); ok && isZeroLenReslice(se) {
			return true
		}
		if call, ok := rhs.(*ast.CallExpr); ok && len(call.Args) == 3 {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" && isBuiltin(pkg, id) {
				return true
			}
		}
		return false
	}
	fieldObj := func(obj types.Object) types.Object {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					if !sanctionedRHS(rhs) {
						continue
					}
					if obj := fieldObj(sliceBaseObject(pkg, n.Lhs[i])); obj != nil {
						out[obj] = true
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok || !sanctionedRHS(kv.Value) {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok {
						if obj := fieldObj(identObject(pkg, key)); obj != nil {
							out[obj] = true
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// --- SCC condensation --------------------------------------------------

// tarjanSCC computes strongly connected components of the call graph
// (in-program edges only) with an iterative Tarjan, returning them in
// emission order — callees before callers.
func tarjanSCC(g *CallGraph) [][]*FuncNode {
	n := len(g.Nodes)
	index := make([]int, n)
	lowlink := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	idx := make(map[*FuncNode]int, n)
	for i, node := range g.Nodes {
		idx[node] = i
	}
	var (
		counter int
		stack   []int
		sccs    [][]*FuncNode
	)
	type frame struct {
		v    int
		edge int
	}
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		frames := []frame{{v: start}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.edge == 0 {
				index[v] = counter
				lowlink[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			calls := g.Nodes[v].Calls
			for f.edge < len(calls) {
				e := calls[f.edge]
				f.edge++
				if e.Callee == nil {
					continue
				}
				w := idx[e.Callee]
				if index[w] == -1 {
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if lowlink[v] == index[v] {
				var comp []*FuncNode
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, g.Nodes[w])
					if w == v {
						break
					}
				}
				sccs = append(sccs, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if lowlink[v] < lowlink[parent] {
					lowlink[parent] = lowlink[v]
				}
			}
		}
	}
	return sccs
}

// --- transitive contract traversal -------------------------------------

// contractViolation is one transitive contract breach found by
// walkContract: the direct call edge that starts the chain, the interior
// functions, and the local evidence at the end.
type contractViolation struct {
	// Edge is the call edge in the annotated function.
	Edge *CallEdge
	// Chain names the interior call path (excluding the direct callee
	// when the violation is the callee's own, including it otherwise).
	Chain []string
	// Evidence is the terminal local fact ("calls make", …) with its
	// position, or a synthesized fact for external callees.
	Desc string
	Pos  token.Position
}

// walkContract checks every resolved call edge in edges against the
// banned effect bit, traversing through unannotated in-program callees
// and stopping at callees that carry boundary (they are enforced at
// their own declaration). One violation is reported per offending edge.
func walkContract(pkg *Package, edges []*CallEdge, bit Effect, boundary string) []contractViolation {
	out := make([]contractViolation, 0, len(edges))
	for _, edge := range edges {
		if edge.Callee != nil {
			if edge.Callee.Directives[boundary] {
				continue // enforced at its own annotation
			}
			if edge.Callee.Summary.Effects&bit == 0 {
				continue
			}
			names, local := chainThrough(edge.Callee, bit, boundary)
			if local == nil {
				continue // the only paths run through annotated boundaries
			}
			v := contractViolation{
				Edge:  edge,
				Chain: append([]string{edge.Callee.Name()}, names...),
				Desc:  local.Desc,
			}
			evPkg := edge.Callee.Pkg
			v.Pos = evPkg.Fset.Position(local.Pos)
			out = append(out, v)
			continue
		}
		eff, name := externalEffects(edge.ExtPkg, edge.ExtRecv, edge.ExtName)
		if eff&bit == 0 {
			continue
		}
		out = append(out, contractViolation{
			Edge:  edge,
			Chain: []string{name},
			Desc:  effectDesc(bit),
			Pos:   pkg.Fset.Position(edge.Site.Pos()),
		})
	}
	return out
}

// chainThrough walks evidence links from start for one effect bit,
// refusing chains that pass through a boundary-annotated function (the
// effect is that function's own business) and returning the terminal
// local evidence. Returns nil evidence when no boundary-free chain
// exists.
func chainThrough(start *FuncNode, bit Effect, boundary string) (names []string, local *Evidence) {
	seen := make(map[*FuncNode]bool)
	cur := start
	for cur != nil && !seen[cur] {
		seen[cur] = true
		ev := cur.Summary.EvidenceFor(bit)
		if ev == nil {
			return names, nil
		}
		if ev.Via == nil {
			return names, ev
		}
		if ev.Via.Directives[boundary] {
			// The stored chain routes through an enforced boundary.
			// A cleaner path may exist, but hunting for it would make
			// reporting order-dependent; treat as covered.
			return names, nil
		}
		names = append(names, ev.Via.Name())
		cur = ev.Via
	}
	return names, nil
}

// effectDesc renders a one-word reason for an external-callee effect.
func effectDesc(e Effect) string {
	switch e {
	case EffAlloc:
		return "may allocate"
	case EffDynamic:
		return "makes a dynamic call"
	default:
		return e.String()
	}
}

// formatChain renders "a → b → c" for findings.
func formatChain(chain []string) string {
	return strings.Join(chain, " → ")
}

// shortPos renders evidence positions as "file.go:12" (base name only)
// so messages stay stable under checkout moves.
func shortPos(p token.Position) string {
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
