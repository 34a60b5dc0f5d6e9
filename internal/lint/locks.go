package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the concurrency substrate of the lockheld analyzer:
// lock identities and a CFG-accurate "which locks are must-held here"
// walker.
//
// Lock identity is TYPE-level, not instance-level: `s.mu` on any
// *Store resolves to "imc/internal/job.Store.mu". Two instances of the
// same struct are indistinguishable, which is the granularity a
// locking rule is stated at. Package-level mutex variables resolve to
// "pkgpath.varname"; local mutexes are skipped. Embedded mutexes
// (method promotion through an anonymous field) are not resolved — a
// documented gap, the repo convention is named fields.
//
// Must-held tracking is a forward dataflow over the function's CFG
// with set-intersection meet: a lock counts as held at a point only if
// it is held on EVERY path reaching it, so a branch that conditionally
// locks never poisons the merge. Three subtree classes are excluded
// from the walk:
//
//   - `go` statements: the spawned call runs on another goroutine,
//     under a schedule where the caller's locks are not held;
//   - function literals: a closure executes under its invoker's
//     schedule, not at its creation point;
//   - `defer` statements: deferred work runs at return. In the
//     dominant `defer mu.Unlock()` idiom the lock is simply held to
//     the end of the function, which the walker models by never seeing
//     the release.

// lockID identifies a mutex at type granularity:
// "pkgpath.TypeName.field" for struct-field mutexes,
// "pkgpath.varname" for package-level mutex variables.
type lockID string

// --- lock identity ------------------------------------------------------

// mutexMethodCall matches `x.Lock()` / `x.Unlock()` / `x.RLock()` /
// `x.RUnlock()` where x is a sync.Mutex or sync.RWMutex (possibly
// through a pointer), returning the receiver expression and the method
// name. TryLock/TryRLock are deliberately unmatched: a try may fail,
// so the lock is not must-held after it.
func mutexMethodCall(pkg *Package, call *ast.CallExpr) (ast.Expr, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || pkg.Info == nil {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, "", false
	}
	tv, ok := pkg.Info.Types[sel.X]
	if !ok || tv.Type == nil || !isSyncMutexType(tv.Type) {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// isSyncMutexType reports whether t is sync.Mutex or sync.RWMutex
// (pointer dereferenced).
func isSyncMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// lockIdent resolves a mutex receiver expression to its type-level
// identity. Struct fields resolve through go/types selections to the
// owning named type; package-level variables to their package path.
// Locals return false.
func lockIdent(pkg *Package, expr ast.Expr) (lockID, bool) {
	if pkg.Info == nil {
		return "", false
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok {
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return "", false
			}
			tn := named.Obj()
			return lockID(tn.Pkg().Path() + "." + tn.Name() + "." + sel.Obj().Name()), true
		}
		// Qualified package-level variable: pkg.Mu.
		if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && !v.IsField() && v.Pkg() != nil {
			return lockID(v.Pkg().Path() + "." + v.Name()), true
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok && !v.IsField() && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return lockID(v.Pkg().Path() + "." + v.Name()), true
			}
		}
	}
	return "", false
}

// --- subtree exclusion --------------------------------------------------

// goSubtrees marks every node lexically under a `go` statement's call.
func goSubtrees(body ast.Node) map[ast.Node]bool {
	skip := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			markSubtree(skip, g.Call)
		}
		return true
	})
	return skip
}

// markSubtree adds root and everything under it to set.
func markSubtree(set map[ast.Node]bool, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n != nil {
			set[n] = true
		}
		return true
	})
}

// sortedLockIDs returns held's keys in sorted order (map iteration
// would make the reported lock nondeterministic).
func sortedLockIDs(held heldSet) []lockID {
	out := make([]lockID, 0, len(held))
	for id := range held {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- must-held walker ---------------------------------------------------

// heldSet maps each must-held lock to where the current function
// acquired it.
type heldSet map[lockID]token.Pos

// lockOpKind classifies events the walker reports.
type lockOpKind int

const (
	// opAcquire: a Lock/RLock call (internal, never emitted).
	opAcquire lockOpKind = iota
	// opRelease: an Unlock/RUnlock call (internal, never emitted).
	opRelease
	// opCall: a resolved call edge (in-program or external).
	opCall
	// opBlock: a directly blocking channel operation or no-default
	// select.
	opBlock
)

// lockOp is one event in a function's held walk.
type lockOp struct {
	kind lockOpKind
	pos  token.Pos
	id   lockID    // opAcquire / opRelease
	edge *CallEdge // opCall
	desc string    // opBlock
}

// heldWalker runs the must-held dataflow over one function and replays
// it, firing a callback per event with the lock set held at that
// point.
type heldWalker struct {
	node *FuncNode
	cfg  *CFG
	ops  map[ast.Node][]lockOp // per placed block node, in source order
}

// newHeldWalker prepares the walk for node (nil when it has no body).
func newHeldWalker(node *FuncNode) *heldWalker {
	if node.Decl.Body == nil || node.Pkg.Info == nil {
		return nil
	}
	body := node.Decl.Body
	pkg := node.Pkg
	skip := goSubtrees(body)
	comms := selectCommOps(body)

	// Map each placed select communication statement back to its select,
	// so a no-default select is reported once (at the select keyword) no
	// matter which clause block the replay visits first.
	commOwner := make(map[ast.Node]*ast.SelectStmt)
	noDefault := make(map[*ast.SelectStmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		noDefault[sel] = !selectHasDefault(sel)
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
				commOwner[cc.Comm] = sel
			}
		}
		return true
	})

	siteEdge := make(map[*ast.CallExpr]*CallEdge, len(node.Calls))
	for i := range node.Calls {
		siteEdge[node.Calls[i].Site] = &node.Calls[i]
	}

	w := &heldWalker{node: node, cfg: BuildCFG(body), ops: make(map[ast.Node][]lockOp)}
	reportedSel := make(map[*ast.SelectStmt]bool)
	scan := func(stmt ast.Node) []lockOp {
		var ops []lockOp
		if sel := commOwner[stmt]; sel != nil && noDefault[sel] && !reportedSel[sel] {
			reportedSel[sel] = true
			ops = append(ops, lockOp{kind: opBlock, pos: sel.Pos(), desc: "a select without a default case"})
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			if n == nil || skip[n] {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit, *ast.DeferStmt:
				return false
			case *ast.CallExpr:
				if recv, method, ok := mutexMethodCall(pkg, n); ok {
					if id, ok := lockIdent(pkg, recv); ok {
						op := lockOp{kind: opAcquire, pos: n.Pos(), id: id}
						if method == "Unlock" || method == "RUnlock" {
							op.kind = opRelease
						}
						ops = append(ops, op)
					}
					return true
				}
				if e := siteEdge[n]; e != nil {
					ops = append(ops, lockOp{kind: opCall, pos: n.Pos(), edge: e})
				}
			case *ast.SendStmt:
				if !comms[n] {
					ops = append(ops, lockOp{kind: opBlock, pos: n.Pos(), desc: "a channel send"})
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !comms[n] {
					ops = append(ops, lockOp{kind: opBlock, pos: n.Pos(), desc: "a channel receive"})
				}
			}
			return true
		})
		return ops
	}
	for _, blk := range w.cfg.Blocks {
		for _, stmt := range blk.Stmts {
			if _, ok := stmt.(rangeBind); ok {
				continue // key/value binds carry no lock events
			}
			if ops := scan(stmt); len(ops) > 0 {
				w.ops[stmt] = ops
			}
		}
	}
	return w
}

// walk runs the must-held fixed point (intersection meet over reverse
// postorder), then replays every reachable block firing emit per
// call/block event with the held set at that point.
func (w *heldWalker) walk(emit func(held heldSet, op lockOp)) {
	n := len(w.cfg.Blocks)
	in := make([]heldSet, n)
	out := make([]heldSet, n)
	rpo := w.cfg.reversePostorder()
	in[w.cfg.Entry.Index] = heldSet{}
	for changed := true; changed; {
		changed = false
		for _, blk := range rpo {
			if blk != w.cfg.Entry {
				merged := meetPreds(blk, out)
				if merged == nil {
					continue // no computed predecessor yet
				}
				if !heldEqual(in[blk.Index], merged) {
					in[blk.Index] = merged
					changed = true
				}
			}
			next := w.apply(in[blk.Index], blk, nil)
			if !heldEqual(out[blk.Index], next) {
				out[blk.Index] = next
				changed = true
			}
		}
	}
	for _, blk := range rpo {
		if in[blk.Index] == nil {
			continue
		}
		w.apply(in[blk.Index], blk, emit)
	}
}

// apply runs blk's events over a copy of held, optionally emitting.
func (w *heldWalker) apply(held heldSet, blk *Block, emit func(heldSet, lockOp)) heldSet {
	cur := make(heldSet, len(held))
	for id, h := range held {
		cur[id] = h
	}
	for _, stmt := range blk.Stmts {
		for _, op := range w.ops[stmt] {
			switch op.kind {
			case opAcquire:
				if _, ok := cur[op.id]; !ok {
					cur[op.id] = op.pos
				}
			case opRelease:
				delete(cur, op.id)
			case opCall, opBlock:
				if emit != nil {
					emit(cur, op)
				}
			}
		}
	}
	return cur
}

// meetPreds intersects the out-sets of blk's computed predecessors
// (must-analysis: held only if held on every incoming path). Returns
// nil when no predecessor has been computed yet.
func meetPreds(blk *Block, out []heldSet) heldSet {
	var merged heldSet
	first := true
	for _, p := range blk.Preds {
		po := out[p.Index]
		if po == nil {
			continue
		}
		if first {
			first = false
			merged = make(heldSet, len(po))
			for id, h := range po {
				merged[id] = h
			}
			continue
		}
		for id, pos := range merged {
			opos, ok := po[id]
			if !ok {
				delete(merged, id)
				continue
			}
			// Keep the earlier acquisition site for determinism.
			if opos < pos {
				merged[id] = opos
			}
		}
	}
	if first {
		return nil
	}
	return merged
}

// heldEqual compares two held sets.
func heldEqual(a, b heldSet) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for id, h := range a {
		if bh, ok := b[id]; !ok || bh != h {
			return false
		}
	}
	return true
}
