package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseFuncCFG parses src (a full file), finds the named function, and
// builds its CFG.
func parseFuncCFG(t *testing.T, src, name string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return BuildCFG(fd.Body)
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// depthOfAssign returns the loop depth of the statement assigning to
// the named identifier (via = or :=).
func depthOfAssign(t *testing.T, cfg *CFG, name string) int {
	t.Helper()
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Stmts {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				continue
			}
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == name {
					d, ok := cfg.NodeLoopDepth(n)
					if !ok {
						t.Fatalf("assignment to %s not placed in any block", name)
					}
					return d
				}
			}
		}
	}
	t.Fatalf("no assignment to %s found in CFG", name)
	return -1
}

func TestCFGLoopDepth(t *testing.T) {
	src := `package p
func f(n int, items []int) {
	setup := 0
	for i := 0; i < n; i++ {
		inner := 1
		for _, v := range items {
			deep := v
			_ = deep
		}
		_ = inner
	}
	_ = setup
}`
	cfg := parseFuncCFG(t, src, "f")
	for name, want := range map[string]int{"setup": 0, "inner": 1, "deep": 2} {
		if got := depthOfAssign(t, cfg, name); got != want {
			t.Errorf("loop depth of %q = %d, want %d", name, got, want)
		}
	}
}

func TestCFGBreakContinueDepth(t *testing.T) {
	src := `package p
func h(n int) {
	for i := 0; i < n; i++ {
		if i == 3 {
			break
		}
		if i%2 == 0 {
			continue
		}
		work := i
		_ = work
	}
	done := 0
	_ = done
}`
	cfg := parseFuncCFG(t, src, "h")
	if got := depthOfAssign(t, cfg, "work"); got != 1 {
		t.Errorf("loop depth of work = %d, want 1", got)
	}
	if got := depthOfAssign(t, cfg, "done"); got != 0 {
		t.Errorf("loop depth of done = %d, want 0", got)
	}
	// The post-loop code must be reachable despite break/continue.
	blk := blockAssigning(t, cfg, "done")
	if !reachable(cfg)[blk] {
		t.Error("block after loop with break/continue is unreachable")
	}
}

// reachable returns the set of blocks reachable from entry.
func reachable(cfg *CFG) map[*Block]bool {
	out := make(map[*Block]bool)
	for _, blk := range cfg.reversePostorder() {
		out[blk] = true
	}
	return out
}

// blockAssigning finds the block containing the assignment to name.
func blockAssigning(t *testing.T, cfg *CFG, name string) *Block {
	t.Helper()
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Stmts {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				continue
			}
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == name {
					return blk
				}
			}
		}
	}
	t.Fatalf("no assignment to %s found", name)
	return nil
}

func TestCFGUnreachableAfterReturn(t *testing.T) {
	src := `package p
func r(c bool) int {
	if c {
		return 1
	} else {
		return 2
	}
}`
	cfg := parseFuncCFG(t, src, "r")
	// Both arms return, so the if's join block exists but is
	// unreachable, and exit must still see both return blocks.
	if len(cfg.Exit.Preds) < 2 {
		t.Fatalf("exit has %d predecessors, want >= 2", len(cfg.Exit.Preds))
	}
	if len(reachable(cfg)) == len(cfg.Blocks) {
		t.Error("expected at least one unreachable block (the post-if join)")
	}
}

func TestCFGRangeHeaderPlacement(t *testing.T) {
	src := `package p
func s(items []int) int {
	total := 0
	for _, v := range items {
		total += v
	}
	return total
}`
	cfg := parseFuncCFG(t, src, "s")
	// The ranged-over expression must sit at depth 0 (evaluated once);
	// the rangeBind marker and the body at depth 1.
	var xDepth, bindDepth = -1, -1
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Stmts {
			switch n := n.(type) {
			case rangeBind:
				bindDepth = blk.LoopDepth
			case *ast.Ident:
				if n.Name == "items" {
					xDepth = blk.LoopDepth
				}
			}
		}
	}
	if xDepth != 0 {
		t.Errorf("ranged-over expression depth = %d, want 0", xDepth)
	}
	if bindDepth != 1 {
		t.Errorf("range bind depth = %d, want 1", bindDepth)
	}
}

// dumpCFG renders a CFG compactly for golden comparison: one line per
// block with its loop depth, the kinds of its placed nodes, and its
// successor list. The golden tests below pin the builder's block
// structure on the exotic control-flow shapes.
func dumpCFG(cfg *CFG) string {
	var b strings.Builder
	for _, blk := range cfg.Blocks {
		fmt.Fprintf(&b, "b%d d%d:", blk.Index, blk.LoopDepth)
		for _, n := range blk.Stmts {
			b.WriteString(" ")
			b.WriteString(nodeKind(n))
		}
		b.WriteString(" ->")
		for _, s := range blk.Succs {
			fmt.Fprintf(&b, " b%d", s.Index)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// nodeKind names one placed node for the dump.
func nodeKind(n ast.Node) string {
	if _, ok := n.(rangeBind); ok {
		return "rangeBind"
	}
	return strings.TrimPrefix(fmt.Sprintf("%T", n), "*ast.")
}

func TestCFGGoldenDeferInLoop(t *testing.T) {
	src := `package p
func f(items []int) {
	for _, v := range items {
		defer release(v)
	}
	done := 0
	_ = done
}`
	got := dumpCFG(parseFuncCFG(t, src, "f"))
	want := `b0 d0: Ident -> b2
b1 d0: ->
b2 d1: rangeBind -> b3 b4
b3 d0: AssignStmt AssignStmt -> b1
b4 d1: DeferStmt -> b2
`
	if got != want {
		t.Errorf("defer-in-loop CFG dump:\n%s\nwant:\n%s", got, want)
	}
}

func TestCFGGoldenLabeledBreakContinue(t *testing.T) {
	src := `package p
func g(grid [][]int) int {
	total := 0
outer:
	for _, row := range grid {
		for _, v := range row {
			if v < 0 {
				continue outer
			}
			if v == 99 {
				break outer
			}
			total += v
		}
	}
	return total
}`
	got := dumpCFG(parseFuncCFG(t, src, "g"))
	want := `b0 d0: AssignStmt -> b2
b1 d0: ->
b2 d0: Ident -> b4
b3 d0: ReturnStmt -> b1
b4 d1: rangeBind -> b3 b5
b5 d1: Ident -> b6
b6 d2: rangeBind -> b7 b8
b7 d1: -> b4
b8 d2: BinaryExpr -> b10 b9
b9 d2: BinaryExpr -> b12 b11
b10 d2: BranchStmt -> b4
b11 d2: AssignStmt -> b6
b12 d2: BranchStmt -> b3
`
	if got != want {
		t.Errorf("labeled break/continue CFG dump:\n%s\nwant:\n%s", got, want)
	}
}

func TestCFGGoldenGoto(t *testing.T) {
	src := `package p
func h(n int) int {
	i := 0
retry:
	i++
	if i < n {
		goto retry
	}
	return i
}`
	got := dumpCFG(parseFuncCFG(t, src, "h"))
	want := `b0 d0: AssignStmt -> b2
b1 d0: ->
b2 d0: IncDecStmt BinaryExpr -> b4 b3
b3 d0: ReturnStmt -> b1
b4 d0: BranchStmt -> b2
`
	if got != want {
		t.Errorf("goto CFG dump:\n%s\nwant:\n%s", got, want)
	}
}

func TestCFGGoldenSingleCaseSelect(t *testing.T) {
	src := `package p
func s(ch chan int) int {
	select {
	case v := <-ch:
		return v
	}
}`
	got := dumpCFG(parseFuncCFG(t, src, "s"))
	want := `b0 d0: -> b3 b2
b1 d0: ->
b2 d0: -> b1
b3 d0: AssignStmt ReturnStmt -> b1
`
	if got != want {
		t.Errorf("single-case select CFG dump:\n%s\nwant:\n%s", got, want)
	}
}
