package lint

import (
	"go/ast"
	"go/token"
)

// This file builds per-function control-flow graphs — the substrate of
// the suite's flow-sensitive analyzers (allocfree, hotpath,
// ifacedispatch, valuecopy, and lockheld's must-held walk). A purely
// syntactic check can say "this expression allocates" but not "…and it
// does so on every iteration of the sampling loop". The CFG gives them
// two things:
//
//   - basic blocks with successor/predecessor edges, so a forward
//     dataflow pass can propagate facts around branches, loops, and
//     early returns;
//   - a per-statement loop depth, so allocation checks can distinguish
//     one-time setup from per-iteration churn.
//
// The builder is deliberately conservative where Go's control flow gets
// exotic: a goto to an unresolvable label, or a panic/recover pair, is
// modelled as an edge to the exit block rather than rejected, because a
// lint analyzer must never crash on legal code. Function literals are
// NOT inlined — each literal gets its own CFG on demand; a closure's
// body executes under a different schedule than its enclosing function.

// Block is one basic block: a maximal run of straight-line statements.
// Stmts holds the statements (and, for compound statements, the header
// expressions — an if's condition, a switch's tag) that execute when
// control enters the block. Bodies of compound statements live in
// successor blocks, never in Stmts, so analyzers may inspect Stmts
// nodes without re-traversing nested control flow.
type Block struct {
	// Index is the block's position in CFG.Blocks (entry is 0).
	Index int
	// Stmts lists the AST nodes that execute in this block, in order.
	Stmts []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs, Preds []*Block
	// LoopDepth counts the enclosing loops: statements in a block with
	// LoopDepth ≥ 1 run once per iteration of some loop.
	LoopDepth int
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks lists every block, entry first. The exit block (index 1)
	// collects every return path and the fallthrough off the end.
	Blocks []*Block
	// Entry and Exit are Blocks[0] and Blocks[1].
	Entry, Exit *Block

	// depth maps every statement node placed in a block to that block's
	// loop depth (see NodeLoopDepth).
	depth map[ast.Node]int
}

// NodeLoopDepth returns the loop depth of a statement node that was
// placed in a block, and false for nodes the builder never saw (nodes
// nested inside expressions inherit their statement's depth; resolve
// them through their enclosing statement).
func (c *CFG) NodeLoopDepth(n ast.Node) (int, bool) {
	d, ok := c.depth[n]
	return d, ok
}

// builder carries the under-construction CFG plus the jump context.
type builder struct {
	cfg *CFG
	cur *Block
	// loopDepth is the number of loops enclosing the statement being
	// placed right now.
	loopDepth int
	// breakTo / continueTo are the current targets of unlabeled break
	// and continue.
	breakTo, continueTo *Block
	// labels maps label names to their continue/break/goto targets.
	labels map[string]*labelTarget
	// gotos records forward gotos to resolve once all labels are seen.
	gotos []pendingGoto
}

type labelTarget struct {
	// entry is where a goto / continue-to-label lands (loop head for
	// labeled loops).
	entry *Block
	// brk is where a labeled break lands.
	brk *Block
	// cont is the labeled loop's continue target (nil for non-loops).
	cont *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

// BuildCFG constructs the control-flow graph of body. The body may be a
// function declaration's or a function literal's.
func BuildCFG(body *ast.BlockStmt) *CFG {
	cfg := &CFG{depth: make(map[ast.Node]int)}
	b := &builder{cfg: cfg, labels: make(map[string]*labelTarget)}
	entry := b.newBlock(0)
	exit := b.newBlock(0)
	cfg.Entry, cfg.Exit = entry, exit
	b.cur = entry
	b.stmtList(body.List)
	// Falling off the end of the body flows to exit.
	b.edge(b.cur, exit)
	// Resolve gotos; unknown labels (impossible in type-checked code,
	// possible in partially-broken code) conservatively edge to exit.
	for _, g := range b.gotos {
		if t, ok := b.labels[g.label]; ok && t.entry != nil {
			b.edge(g.from, t.entry)
		} else {
			b.edge(g.from, exit)
		}
	}
	return cfg
}

// newBlock appends a fresh block at the given loop depth.
func (b *builder) newBlock(depth int) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), LoopDepth: depth}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// edge links from → to (nil-safe; no-op on a nil source, which stands
// for unreachable code after a terminating statement).
func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// place records a node in the current block (creating an unreachable
// continuation block if control already left).
func (b *builder) place(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock(b.loopDepth)
	}
	b.cur.Stmts = append(b.cur.Stmts, n)
	b.cfg.depth[n] = b.cur.LoopDepth
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt threads one statement through the graph.
func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.place(s.Init)
		}
		b.place(s.Cond)
		condBlk := b.cur
		after := b.newBlock(b.loopDepth)
		// then arm
		b.cur = b.newBlock(b.loopDepth)
		b.edge(condBlk, b.cur)
		b.stmt(s.Body)
		b.edge(b.cur, after)
		// else arm (or fallthrough straight to after)
		if s.Else != nil {
			b.cur = b.newBlock(b.loopDepth)
			b.edge(condBlk, b.cur)
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(condBlk, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.place(s.Init)
		}
		head := b.newBlock(b.loopDepth + 1)
		b.edge(b.cur, head)
		after := b.newBlock(b.loopDepth)
		post := b.newBlock(b.loopDepth + 1)
		b.cur = head
		if s.Cond != nil {
			b.place(s.Cond)
			b.edge(b.cur, after)
		}
		body := b.newBlock(b.loopDepth + 1)
		b.edge(b.cur, body)
		b.cur = body
		b.loop(after, post, func() { b.stmt(s.Body) })
		b.edge(b.cur, post)
		b.cur = post
		if s.Post != nil {
			b.place(s.Post)
		}
		b.edge(b.cur, head) // back edge
		b.cur = after

	case *ast.RangeStmt:
		// The ranged-over expression is evaluated once, outside the loop.
		b.place(s.X)
		head := b.newBlock(b.loopDepth + 1)
		b.edge(b.cur, head)
		after := b.newBlock(b.loopDepth)
		b.edge(head, after) // range exhausted
		body := b.newBlock(b.loopDepth + 1)
		b.edge(head, body)
		// The per-iteration key/value bind happens in the head; record
		// the RangeStmt itself there so analyzers see the bind depth.
		head.Stmts = append(head.Stmts, rangeBind{s})
		b.cfg.depth[s] = head.LoopDepth
		b.cur = body
		b.loop(after, head, func() { b.stmt(s.Body) })
		b.edge(b.cur, head) // back edge
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.place(s.Init)
		}
		if s.Tag != nil {
			b.place(s.Tag)
		}
		b.switchBody(s.Body, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.place(s.Init)
		}
		b.place(s.Assign)
		b.switchBody(s.Body, nil)

	case *ast.SelectStmt:
		b.switchBody(s.Body, func(cc *ast.CommClause) ast.Stmt { return cc.Comm })

	case *ast.LabeledStmt:
		// Give the label a landing block; loops behind the label expose
		// their break/continue targets through it.
		land := b.newBlock(b.loopDepth)
		b.edge(b.cur, land)
		b.cur = land
		t := &labelTarget{entry: land}
		b.labels[s.Label.Name] = t
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			after := b.newBlock(b.loopDepth)
			t.brk = after
			prevBreak, prevCont := b.breakTo, b.continueTo
			// The inner loop's own builder wires unlabeled break and
			// continue; a labeled break/continue resolves through t,
			// which we point at the same blocks via labelLoop.
			b.labelLoop(inner, t, after)
			b.breakTo, b.continueTo = prevBreak, prevCont
			b.cur = after
		default:
			t.brk = nil
			b.stmt(s.Stmt)
		}

	case *ast.BranchStmt:
		b.place(s)
		b.branch(s)

	case *ast.ReturnStmt:
		b.place(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil

	default:
		// Straight-line statements: decls, assignments, calls, sends,
		// go/defer, inc/dec, empty.
		b.place(s)
	}
}

// loop runs body() with break/continue targets pushed.
func (b *builder) loop(brk, cont *Block, body func()) {
	prevBreak, prevCont := b.breakTo, b.continueTo
	b.breakTo, b.continueTo = brk, cont
	prevDepth := b.loopDepth
	b.loopDepth++
	body()
	b.loopDepth = prevDepth
	b.breakTo, b.continueTo = prevBreak, prevCont
}

// labelLoop rebuilds a labeled for/range with the label's targets
// aliased to the loop's own, so `break L` / `continue L` / `goto L`
// resolve correctly.
func (b *builder) labelLoop(s ast.Stmt, t *labelTarget, after *Block) {
	switch s := s.(type) {
	case *ast.ForStmt:
		if s.Init != nil {
			b.place(s.Init)
		}
		head := b.newBlock(b.loopDepth + 1)
		b.edge(b.cur, head)
		post := b.newBlock(b.loopDepth + 1)
		t.cont = post
		b.cur = head
		if s.Cond != nil {
			b.place(s.Cond)
			b.edge(b.cur, after)
		}
		body := b.newBlock(b.loopDepth + 1)
		b.edge(b.cur, body)
		b.cur = body
		b.loop(after, post, func() { b.stmt(s.Body) })
		b.edge(b.cur, post)
		b.cur = post
		if s.Post != nil {
			b.place(s.Post)
		}
		b.edge(b.cur, head)
	case *ast.RangeStmt:
		b.place(s.X)
		head := b.newBlock(b.loopDepth + 1)
		b.edge(b.cur, head)
		b.edge(head, after)
		t.cont = head
		body := b.newBlock(b.loopDepth + 1)
		b.edge(head, body)
		head.Stmts = append(head.Stmts, rangeBind{s})
		b.cfg.depth[s] = head.LoopDepth
		b.cur = body
		b.loop(after, head, func() { b.stmt(s.Body) })
		b.edge(b.cur, head)
	}
}

// branch wires one break/continue/goto/fallthrough.
func (b *builder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		if label != "" {
			if t, ok := b.labels[label]; ok && t.brk != nil {
				b.edge(b.cur, t.brk)
				b.cur = nil
				return
			}
		}
		b.edge(b.cur, b.breakTo)
		b.cur = nil
	case "continue":
		if label != "" {
			if t, ok := b.labels[label]; ok && t.cont != nil {
				b.edge(b.cur, t.cont)
				b.cur = nil
				return
			}
		}
		b.edge(b.cur, b.continueTo)
		b.cur = nil
	case "goto":
		b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
		b.cur = nil
	case "fallthrough":
		// Handled structurally by switchBody (clauses are chained);
		// nothing to wire here.
	}
}

// switchBody builds the clause fan-out of a switch / type-switch /
// select. comm extracts a select clause's communication statement (nil
// for plain switches).
func (b *builder) switchBody(body *ast.BlockStmt, comm func(*ast.CommClause) ast.Stmt) {
	dispatch := b.cur
	after := b.newBlock(b.loopDepth)
	hasDefault := false
	// Build every clause; collect clause-entry blocks for fallthrough.
	type clause struct{ entry, exit *Block }
	clauses := make([]clause, 0, len(body.List))
	for _, raw := range body.List {
		entry := b.newBlock(b.loopDepth)
		b.edge(dispatch, entry)
		b.cur = entry
		var list []ast.Stmt
		switch cc := raw.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			list = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			} else if comm != nil {
				b.stmt(comm(cc))
			}
			list = cc.Body
		}
		prevBreak := b.breakTo
		b.breakTo = after
		b.stmtList(list)
		b.breakTo = prevBreak
		exit := b.cur
		b.edge(exit, after)
		clauses = append(clauses, clause{entry: entry, exit: exit})
	}
	// fallthrough chains clause i into clause i+1's entry.
	for i, raw := range body.List {
		cc, ok := raw.(*ast.CaseClause)
		if !ok || i+1 >= len(clauses) {
			continue
		}
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				b.edge(clauses[i].exit, clauses[i+1].entry)
			}
		}
	}
	if !hasDefault {
		// No default: the switch can fall through without entering any
		// clause (or, for select, block — same merge semantics).
		b.edge(dispatch, after)
	}
	b.cur = after
}

// rangeBind wraps a RangeStmt when recorded in a loop-head block: it
// marks the per-iteration key/value binding without re-exposing the
// loop body to block-statement walkers.
type rangeBind struct {
	Range *ast.RangeStmt
}

// Pos/End make rangeBind an ast.Node.
func (r rangeBind) Pos() token.Pos { return r.Range.Pos() }
func (r rangeBind) End() token.Pos { return r.Range.TokPos }

// reversePostorder returns the reachable blocks in reverse postorder
// (entry first) — the iteration order under which forward dataflow
// converges fastest.
func (c *CFG) reversePostorder() []*Block {
	seen := make([]bool, len(c.Blocks))
	var post []*Block
	var dfs func(*Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(c.Entry)
	// reverse
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
