package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// HotPath checks the `//imc:hotpath` contracts against what the compiler
// actually did, instead of approximating it from the AST. The loader
// starts one `go build -gcflags='-m=2 -d=ssa/check_bce/debug=1'` over
// the packages that declare hot functions while it parses and
// type-checks (see startCompile); this analyzer maps the compiler's
// diagnostics back onto each hot function through the CFG's loop depth
// and the call graph, and reports three things:
//
//   - heap escapes: `moved to heap: x` anywhere in the function, or an
//     in-loop `escapes to heap` whose source is an interface conversion
//     or a function literal (other in-loop allocations are allocfree's);
//   - missed inlining: an in-loop call to a statically resolved
//     in-module callee that is not itself `//imc:hotpath` and that the
//     compiler did not inline — followed transitively through the
//     callees it did inline, whose bodies now run in the loop;
//   - surviving bounds checks: a `Found IsInBounds` / `IsSliceInBounds`
//     on an index or slice expression in a hot loop whose index mentions
//     an enclosing loop's induction variable. Data-dependent gathers
//     (`active[v]`) keep their checks legitimately and are not reported.
//
// The compiler prints an inlined callee's diagnostics at the caller's
// call site. A diagnostic at the site of an inlined `//imc:hotpath`
// callee belongs to that callee, which is checked at its own
// declaration, so the caller does not answer for it.
//
// The findings are the compiler's, so they depend on the toolchain (CI
// pins it). The missed-inlining check and the inlined-callee
// attribution need the call graph (a whole-program load).
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "check //imc:hotpath functions against the compiler's -m=2 and bounds-check diagnostics: heap escapes, in-loop calls it did not inline, and bounds checks it kept on loop-indexed accesses",
	Kind: KindInterprocedural,
	Run:  runHotPath,
}

// hotpathGCFlags are the compiler flags whose diagnostics HotPath reads.
const hotpathGCFlags = "-m=2 -d=ssa/check_bce/debug=1"

// srcPos is a compiler diagnostic position: the file qualified by its
// package's import path ("imc/internal/ric/pool.go"), line, and byte
// column, the coordinates go/token reports.
type srcPos struct {
	file      string
	line, col int
}

// compilerFacts indexes one build's diagnostics by position.
type compilerFacts struct {
	// inlined lists the callees of the `inlining call to` lines at a
	// call site. Calls nested inside an inlined body are reported at the
	// outermost call site too.
	inlined map[srcPos][]string
	// escapes holds the subject of each `<expr> escapes to heap` verdict.
	escapes map[srcPos]string
	// moved holds the variable of each `moved to heap: x`.
	moved map[srcPos]string
	// bounds holds the kind ("IsInBounds", "IsSliceInBounds") of each
	// bounds check that survived.
	bounds map[srcPos]string
	// noInline holds the compiler's reason for refusing to inline a
	// function, keyed by the declaration's file and line (col 0).
	noInline map[srcPos]string
}

// compilerLine matches `file.go:line:col: message`.
var compilerLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

// parseCompilerOutput indexes the diagnostics of a build. Lines it does
// not know — -m=2 flow explanations, positions in generated code or in
// files outside the package being compiled — are skipped.
func parseCompilerOutput(out []byte) *compilerFacts {
	f := &compilerFacts{
		inlined:  make(map[srcPos][]string),
		escapes:  make(map[srcPos]string),
		moved:    make(map[srcPos]string),
		bounds:   make(map[srcPos]string),
		noInline: make(map[srcPos]string),
	}
	pkg := ""
	for _, line := range strings.Split(string(out), "\n") {
		if header, ok := strings.CutPrefix(line, "# "); ok {
			pkg = header
			continue
		}
		m := compilerLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		file := packageFile(pkg, m[1])
		if file == "" {
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		p, msg := srcPos{file: file, line: ln, col: col}, m[4]
		switch {
		case strings.HasPrefix(msg, "inlining call to "):
			f.inlined[p] = append(f.inlined[p], strings.TrimPrefix(msg, "inlining call to "))
		case strings.HasSuffix(msg, " escapes to heap"):
			f.escapes[p] = strings.TrimSuffix(msg, " escapes to heap")
		case strings.HasPrefix(msg, "moved to heap: "):
			f.moved[p] = strings.TrimPrefix(msg, "moved to heap: ")
		case msg == "Found IsInBounds" || msg == "Found IsSliceInBounds":
			f.bounds[p] = strings.TrimPrefix(msg, "Found ")
		case strings.HasPrefix(msg, "cannot inline "):
			if _, reason, ok := strings.Cut(msg, ": "); ok {
				f.noInline[srcPos{file: file, line: ln}] = reason
			}
		}
	}
	return f
}

// packageFile qualifies a file name the compiler printed under the
// `# pkg` header with pkg's import path, or returns "" when the file is
// not one of pkg's. The printed name is relative to the directory the
// build ran in — and a cached build replays the output of whichever
// directory first ran it — so only the trailing directories are
// compared with pkg's path.
func packageFile(pkg, printed string) string {
	if pkg == "" || filepath.IsAbs(printed) {
		return ""
	}
	dir, base := path.Split(filepath.ToSlash(printed))
	dir = strings.TrimSuffix(dir, "/")
	for _, up := range []string{"./", "../"} {
		for strings.HasPrefix(dir, up) {
			dir = dir[len(up):]
		}
	}
	if dir == "." || dir == ".." {
		dir = ""
	}
	if dir != "" && dir != pkg && !strings.HasSuffix(pkg, "/"+dir) {
		return ""
	}
	return pkg + "/" + base
}

// compileRun is one asynchronous `go build` over a set of package
// directories; done closes when facts (or err) is set.
type compileRun struct {
	dirs  map[string]bool
	done  chan struct{}
	facts *compilerFacts
	err   error
}

// startCompile builds dirs (absolute, under root) with hotpathGCFlags
// using the go command of the running toolchain, in the background.
// (-trimpath would print stable file names, but it changes the build
// ID of every dependency and so rebuilds the standard library.)
func startCompile(root string, dirs []string) *compileRun {
	c := &compileRun{dirs: make(map[string]bool, len(dirs)), done: make(chan struct{})}
	args := []string{"build", "-o", os.DevNull, "-gcflags=" + hotpathGCFlags}
	for _, dir := range dirs {
		c.dirs[dir] = true
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			rel = dir
		}
		args = append(args, "./"+filepath.ToSlash(rel))
	}
	go func() {
		defer close(c.done)
		cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), args...)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		if err != nil {
			first, _, _ := strings.Cut(strings.TrimSpace(string(out)), "\n")
			c.err = fmt.Errorf("go build %s: %v: %s", hotpathGCFlags, err, first)
			return
		}
		c.facts = parseCompilerOutput(out)
	}()
	return c
}

// hotPackageDirs returns the directories among dirs with a non-test Go
// file that declares a `//imc:hotpath` function — a cheap byte scan, so
// the build can start before anything is parsed.
func hotPackageDirs(dirs []string) []string {
	directive := []byte("\n//imc:" + directiveHotPath)
	hot := make([]string, 0, len(dirs))
next:
	for _, dir := range dirs {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if data, err := os.ReadFile(filepath.Join(dir, name)); err == nil && bytes.Contains(data, directive) {
				hot = append(hot, dir)
				continue next
			}
		}
	}
	return hot
}

// compilerFacts waits for the build covering p, starting a build of p
// alone when the loader did not cover it.
func (p *Package) compilerFacts() (*compilerFacts, error) {
	if p.build == nil || !p.build.dirs[p.Dir] {
		p.build = startCompile(p.Dir, []string{p.Dir})
	}
	<-p.build.done
	return p.build.facts, p.build.err
}

func runHotPath(pkg *Package, r *Reporter) {
	hot := hotFuncDecls(pkg)
	if len(hot) == 0 || pkg.Info == nil {
		return
	}
	facts, err := pkg.compilerFacts()
	if err != nil {
		r.Reportf("hotpath", hot[0].Name.Pos(), "cannot check the hot-path contracts: %v", err)
		return
	}
	for _, fd := range hot {
		h := &hotChecker{pkg: pkg, fd: fd, facts: facts, r: r}
		inLoop := loopStmts(BuildCFG(fd.Body))
		h.checkEscapes(inLoop)
		h.checkInlining(inLoop)
		h.checkBounds(inLoop)
	}
}

type hotChecker struct {
	pkg   *Package
	fd    *ast.FuncDecl
	facts *compilerFacts
	r     *Reporter
}

// compilerKey maps a node of pkg to the position the compiler reports
// it at.
func compilerKey(pkg *Package, n ast.Node) srcPos {
	p := pkg.Fset.Position(compilerPos(n))
	return srcPos{file: pkg.Path + "/" + filepath.Base(p.Filename), line: p.Line, col: p.Column}
}

func (h *hotChecker) report(n ast.Node, format string, args ...any) {
	h.r.Reportf("hotpath", compilerPos(n), format, args...)
}

// compilerPos is where the gc compiler positions a node: the opening
// token of calls, index and slice expressions and composite literals,
// the dot of a selector, the operator of a binary expression, and the
// start of anything else.
func compilerPos(n ast.Node) token.Pos {
	switch n := n.(type) {
	case *ast.CallExpr:
		return n.Lparen
	case *ast.IndexExpr:
		return n.Lbrack
	case *ast.SliceExpr:
		return n.Lbrack
	case *ast.CompositeLit:
		return n.Lbrace
	case *ast.SelectorExpr:
		return n.Sel.Pos() - 1
	case *ast.BinaryExpr:
		return n.OpPos
	}
	return n.Pos()
}

// inspectLoop walks the in-loop statements, leaving function-literal
// bodies out: a closure runs on its own schedule.
func inspectLoop(inLoop []ast.Node, visit func(ast.Node)) {
	for _, stmt := range inLoop {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			visit(n)
			_, lit := n.(*ast.FuncLit)
			return !lit
		})
	}
}

// ownedByHotCallee reports whether a diagnostic on n belongs to an
// inlined hot callee: n is a call the compiler inlined (so the callee's
// body diagnostics print at n) to a statically resolved `//imc:hotpath`
// function, which answers for them at its own declaration.
func (h *hotChecker) ownedByHotCallee(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(h.facts.inlined[compilerKey(h.pkg, call)]) == 0 || h.pkg.Prog == nil {
		return false
	}
	res := resolveCall(h.pkg, call)
	node := h.pkg.Prog.Graph.Node(res.fn)
	return res.kind == callStatic && node != nil && node.Directives[directiveHotPath]
}

// checkEscapes is rule (a).
func (h *hotChecker) checkEscapes(inLoop []ast.Node) {
	ast.Inspect(h.fd, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Ident, *ast.CallExpr: // a variable, or an inlined callee's
		default:
			return n != nil
		}
		if v, ok := h.facts.moved[compilerKey(h.pkg, n)]; ok && !h.ownedByHotCallee(n) {
			h.report(n, "%s is moved to the heap in hot function %s; keep a hot function's locals on the stack (do not retain their address past the call)",
				v, h.fd.Name.Name)
		}
		return true
	})
	convs := h.ifaceOperands(inLoop)
	inspectLoop(inLoop, func(n ast.Node) {
		subject, ok := h.facts.escapes[compilerKey(h.pkg, n)]
		if !ok || h.ownedByHotCallee(n) {
			return
		}
		if _, lit := n.(*ast.FuncLit); lit {
			h.report(n, "function literal escapes to the heap on every iteration of a hot loop in %s; hoist it out of the loop",
				h.fd.Name.Name)
		} else if convs[n] {
			h.report(n, "%s escapes to the heap through an interface conversion on every iteration of a hot loop in %s; convert once outside the loop or keep the call off the hot path",
				subject, h.fd.Name.Name)
		}
	})
}

// ifaceOperands collects the in-loop expressions that go/types places in
// an interface-typed slot while their own type is concrete: call
// arguments, explicit conversions, assignments, and returns.
func (h *hotChecker) ifaceOperands(inLoop []ast.Node) map[ast.Node]bool {
	info := h.pkg.Info
	out := make(map[ast.Node]bool)
	add := func(slot types.Type, e ast.Expr) {
		tv, ok := info.Types[e]
		if slot == nil || !ok || tv.Type == nil || tv.IsNil() || types.IsInterface(tv.Type) {
			return
		}
		if types.IsInterface(slot) {
			out[e] = true
		}
	}
	var results *types.Tuple
	if fn, ok := info.Defs[h.fd.Name].(*types.Func); ok {
		results = fn.Type().(*types.Signature).Results()
	}
	inspectLoop(inLoop, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			fun, ok := info.Types[n.Fun]
			if !ok || fun.Type == nil {
				return
			}
			if fun.IsType() {
				// An explicit conversion is positioned at the call.
				if len(n.Args) == 1 && types.IsInterface(fun.Type) {
					if at := info.TypeOf(n.Args[0]); at != nil && !types.IsInterface(at) {
						out[n] = true
					}
				}
				return
			}
			if sig, ok := fun.Type.Underlying().(*types.Signature); ok && !n.Ellipsis.IsValid() {
				for i, arg := range n.Args {
					add(paramTypeAt(sig, i), arg)
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					add(info.TypeOf(lhs), n.Rhs[i])
				}
			}
		case *ast.ReturnStmt:
			if results != nil && len(n.Results) == results.Len() {
				for i, res := range n.Results {
					add(results.At(i).Type(), res)
				}
			}
		}
	})
	return out
}

// checkInlining is rule (b).
func (h *hotChecker) checkInlining(inLoop []ast.Node) {
	edges := loopCallEdges(h.pkg, h.fd, inLoop)
	for _, e := range edges {
		if e.Callee == nil || e.Callee.Directives[directiveHotPath] {
			continue
		}
		if len(h.facts.inlined[compilerKey(h.pkg, e.Site)]) == 0 {
			h.reportNotInlined(e.Site, []*FuncNode{e.Callee})
			continue
		}
		// The inlined body runs in the loop, so its own calls must inline
		// too. The compiler reports those in the callee's compilation, at
		// their position in its body; callees of packages outside the
		// build cannot be followed.
		queue := [][]*FuncNode{{e.Callee}}
		visited := map[*FuncNode]bool{e.Callee: true}
		for len(queue) > 0 {
			chain := queue[0]
			queue = queue[1:]
			last := chain[len(chain)-1]
			if !h.pkg.build.dirs[last.Pkg.Dir] {
				continue
			}
			for i := range last.Calls {
				next := last.Calls[i].Callee
				if next == nil || next.Directives[directiveHotPath] || visited[next] {
					continue
				}
				visited[next] = true
				chain := append(chain[:len(chain):len(chain)], next)
				if len(h.facts.inlined[compilerKey(last.Pkg, last.Calls[i].Site)]) > 0 {
					queue = append(queue, chain)
				} else {
					h.reportNotInlined(e.Site, chain)
				}
			}
		}
	}
}

func (h *hotChecker) reportNotInlined(site *ast.CallExpr, chain []*FuncNode) {
	names := make([]string, len(chain))
	for i, n := range chain {
		names[i] = n.Name()
	}
	callee := chain[len(chain)-1]
	reason := ""
	decl := compilerKey(callee.Pkg, callee.Decl)
	if why, ok := h.facts.noInline[srcPos{file: decl.file, line: decl.line}]; ok {
		reason = " (" + why + ")"
	}
	h.report(site, "in a hot loop of %s, the compiler does not inline %s%s; the call overhead recurs every iteration — bring the callee under the inlining budget or annotate it //imc:hotpath",
		h.fd.Name.Name, formatChain(names), reason)
}

// checkBounds is rule (c).
func (h *hotChecker) checkBounds(inLoop []ast.Node) {
	ind := h.inductionVars()
	mentions := func(at token.Pos, exprs ...ast.Expr) string {
		for _, e := range exprs {
			if e == nil {
				continue
			}
			var name string
			ast.Inspect(e, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && name == "" {
					if span, ok := ind[h.pkg.Info.Uses[id]]; ok && span[0] <= at && at < span[1] {
						name = id.Name
					}
				}
				return name == ""
			})
			if name != "" {
				return name
			}
		}
		return ""
	}
	inspectLoop(inLoop, func(n ast.Node) {
		kind, ok := h.facts.bounds[compilerKey(h.pkg, n)]
		if !ok {
			return
		}
		var v string
		switch n := n.(type) {
		case *ast.IndexExpr:
			v = mentions(n.Pos(), n.Index)
		case *ast.SliceExpr:
			v = mentions(n.Pos(), n.Low, n.High, n.Max)
		}
		if v != "" {
			h.report(n, "bounds check (%s) on %s survives in a hot loop of %s although the index follows the loop variable %s; relate the lengths before the loop (re-slice to the loop bound or range over the indexed slice)",
				kind, renderExpr(n.(ast.Expr)), h.fd.Name.Name, v)
		}
	})
}

// inductionVars maps each loop induction variable of the function — a
// range key, or a variable a for loop's init declares or its post
// statement steps — to the source span of its loop.
func (h *hotChecker) inductionVars() map[types.Object][2]token.Pos {
	out := make(map[types.Object][2]token.Pos)
	add := func(loop ast.Node, e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := h.pkg.Info.ObjectOf(id); obj != nil {
				out[obj] = [2]token.Pos{loop.Pos(), loop.End()}
			}
		}
	}
	ast.Inspect(h.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			add(n, n.Key)
		case *ast.ForStmt:
			if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, lhs := range init.Lhs {
					add(n, lhs)
				}
			}
			switch post := n.Post.(type) {
			case *ast.IncDecStmt:
				add(n, post.X)
			case *ast.AssignStmt:
				for _, lhs := range post.Lhs {
					add(n, lhs)
				}
			}
		}
		return true
	})
	return out
}
