// Package lint is a small static-analysis framework, built only on the
// standard library's go/parser, go/ast, and go/types, that machine-checks
// the invariants the rest of this repository merely documents (the
// roster is in analyzers.go; `imclint -list` prints it). Among them:
//
//   - determinism — library code must draw randomness from
//     internal/xrand and time from internal/clock, because the RIC
//     sampling guarantees (and every number in EXPERIMENTS.md) are only
//     reproducible seed-for-seed if no code path touches math/rand or
//     the wall clock;
//   - floatcompare — benefit/threshold math must not use exact ==/!= on
//     floats;
//   - seedplumb — exported APIs that spawn workers must be seedable;
//   - the //imc: contracts — hot-path kernels neither allocate nor
//     dispatch dynamically in their loops, and long-running entry
//     points take and forward a context.
//
// Violations that are intentional carry a
// `//lint:allow <check>: <reason>` comment on the offending line (or
// the line above). The justification after the colon is mandatory, and
// the suite polices its own escape hatch: an allow comment that names
// an unknown check, omits the reason, or no longer suppresses anything
// (stale — the violation it excused was fixed or moved) is itself
// reported under the pseudo-check "suppression". An //imc: directive
// that would silently do nothing — an unknown name, or one outside the
// doc comment it applies to — is reported under "directive".
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerKind classifies how deep an analyzer's reasoning goes —
// shown by `imclint -list` so readers know what evidence a finding
// rests on.
type AnalyzerKind string

const (
	// KindSyntactic: single-file AST (plus local type info) pattern
	// matching.
	KindSyntactic AnalyzerKind = "syntactic"
	// KindFlowSensitive: per-function CFG / dataflow reasoning.
	KindFlowSensitive AnalyzerKind = "flow-sensitive"
	// KindInterprocedural: whole-program call graph and summaries.
	KindInterprocedural AnalyzerKind = "interprocedural"
)

// Analyzer is one named check. Run inspects a loaded package and files
// diagnostics through the Reporter. Analyzers are stateless; the driver
// decides which analyzers apply to which packages (see AnalyzersFor).
type Analyzer struct {
	// Name is the check identifier used in output and in
	// `//lint:allow <name>` comments.
	Name string
	// Doc is a one-line description shown by `imclint -list`.
	Doc string
	// Kind classifies the analysis depth (syntactic / flow-sensitive /
	// interprocedural).
	Kind AnalyzerKind
	// Run executes the check.
	Run func(pkg *Package, r *Reporter)
}

// Diagnostic is one finding, positioned for file:line:col output.
type Diagnostic struct {
	// Check is the reporting analyzer's name.
	Check string
	// Pos locates the finding.
	Pos token.Position
	// Message describes the violation and the approved idiom.
	Message string
}

// String formats the diagnostic the way compilers do.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// allowComment is one parsed `//lint:allow` escape hatch, tracked so
// the suite can police its own suppressions.
type allowComment struct {
	// checks are the check names the comment suppresses ("all" matches
	// every check).
	checks []string
	// reason is the mandatory justification after the colon.
	reason string
	// pos locates the comment for hygiene diagnostics.
	pos token.Pos
	// legacy records that the comment used the pre-v2 em-dash/double-
	// dash separator instead of the colon. It shares a word with used —
	// the flag bytes sit after the aligned fields so neither pads.
	legacy bool
	// used flips when the comment suppresses at least one diagnostic
	// in the current run.
	used bool
}

// suppresses reports whether the comment silences the named check.
func (ac *allowComment) suppresses(check string) bool {
	for _, c := range ac.checks {
		if c == check || c == "all" {
			return true
		}
	}
	return false
}

// Reporter collects diagnostics for one package and applies
// `//lint:allow` suppression.
type Reporter struct {
	pkg   *Package
	diags []Diagnostic
	// allow maps filename → line → the allow comments on that line. A
	// diagnostic is suppressed when its line, or the line directly
	// above it, carries an allow comment naming its check (or "all").
	allow map[string]map[int][]*allowComment
	// allows lists every allow comment in the package, for the
	// suppression hygiene pass.
	allows []*allowComment
}

// NewReporter builds a reporter over pkg, indexing its allow comments.
func NewReporter(pkg *Package) *Reporter {
	r := &Reporter{pkg: pkg, allow: make(map[string]map[int][]*allowComment)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				checks, reason, legacy, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				ac := &allowComment{checks: checks, reason: reason, legacy: legacy, pos: c.Pos()}
				r.allows = append(r.allows, ac)
				pos := pkg.Fset.Position(c.Pos())
				byLine := r.allow[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*allowComment)
					r.allow[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], ac)
			}
		}
	}
	return r
}

// parseAllow parses a `//lint:allow check1 check2: reason` comment into
// its check names and justification. The pre-v2 separators ("—", "--")
// are still recognized so old comments keep suppressing, but they are
// flagged as legacy by the hygiene pass.
func parseAllow(text string) (checks []string, reason string, legacy, ok bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	const prefix = "lint:allow"
	if !strings.HasPrefix(text, prefix) {
		return nil, "", false, false
	}
	rest := text[len(prefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, "", false, false
	}
	if i := strings.Index(rest, ":"); i >= 0 {
		reason = strings.TrimSpace(rest[i+1:])
		rest = rest[:i]
	} else {
		for _, sep := range []string{"—", "--"} {
			if i := strings.Index(rest, sep); i >= 0 {
				reason = strings.TrimSpace(rest[i+len(sep):])
				rest = rest[:i]
				legacy = true
				break
			}
		}
		if !legacy {
			// A nested "//" starts a trailing remark, not check names.
			if i := strings.Index(rest, "//"); i >= 0 {
				rest = rest[:i]
			}
		}
	}
	checks = strings.Fields(rest)
	return checks, reason, legacy, len(checks) > 0
}

// Reportf files a diagnostic at pos unless an allow comment suppresses
// it; a suppressing comment is marked used for the hygiene pass.
func (r *Reporter) Reportf(check string, pos token.Pos, format string, args ...any) {
	p := r.pkg.Fset.Position(pos)
	if byLine := r.allow[p.Filename]; byLine != nil {
		for _, line := range [2]int{p.Line, p.Line - 1} {
			for _, ac := range byLine[line] {
				if ac.suppresses(check) {
					ac.used = true
					return
				}
			}
		}
	}
	r.diags = append(r.diags, Diagnostic{
		Check:   check,
		Pos:     p,
		Message: fmt.Sprintf(format, args...),
	})
}

// ReportAt files a diagnostic at an already-resolved position. Used by
// analyzers whose findings are not anchored to an AST node of the
// package (snapshot diffs, contract-file errors). Allow-comment
// suppression still applies when the position falls inside the package.
func (r *Reporter) ReportAt(check string, pos token.Position, format string, args ...any) {
	if byLine := r.allow[pos.Filename]; byLine != nil {
		for _, line := range [2]int{pos.Line, pos.Line - 1} {
			for _, ac := range byLine[line] {
				if ac.suppresses(check) {
					ac.used = true
					return
				}
			}
		}
	}
	r.diags = append(r.diags, Diagnostic{
		Check:   check,
		Pos:     pos,
		Message: fmt.Sprintf(format, args...),
	})
}

// suppressionCheck is the pseudo-check name for allow-comment hygiene
// findings. It is not an Analyzer: it needs the post-run used state.
const suppressionCheck = "suppression"

// suppressionFindings polices the escape hatch after a run: unknown
// check names, missing justifications, legacy separators, and — when
// every check an allow names was actually part of this run — stale
// comments that suppressed nothing.
func (r *Reporter) suppressionFindings(active []*Analyzer) []Diagnostic {
	known := map[string]bool{"all": true}
	for _, a := range All {
		known[a.Name] = true
	}
	activeSet := make(map[string]bool, len(active))
	for _, a := range active {
		activeSet[a.Name] = true
	}
	var out []Diagnostic
	report := func(ac *allowComment, format string, args ...any) {
		out = append(out, Diagnostic{
			Check:   suppressionCheck,
			Pos:     r.pkg.Fset.Position(ac.pos),
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, ac := range r.allows {
		if ac.legacy {
			report(ac, "legacy allow syntax; write //lint:allow %s: <reason>", strings.Join(ac.checks, " "))
		}
		if ac.reason == "" {
			report(ac, "allow comment without a justification; write //lint:allow %s: <reason>", strings.Join(ac.checks, " "))
		}
		covered := true
		for _, c := range ac.checks {
			if !known[c] {
				report(ac, "allow comment names unknown check %q", c)
				covered = false
				continue
			}
			if c != "all" && !activeSet[c] {
				covered = false
			}
		}
		if c := len(ac.checks); c == 1 && ac.checks[0] == "all" && len(active) == 0 {
			covered = false
		}
		if covered && !ac.used {
			report(ac, "stale suppression: this comment no longer suppresses any %s diagnostic; delete it", strings.Join(ac.checks, "/"))
		}
	}
	return out
}

// Diagnostics returns the collected findings sorted by position.
func (r *Reporter) Diagnostics() []Diagnostic {
	sort.Slice(r.diags, func(i, j int) bool {
		a, b := r.diags[i].Pos, r.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return r.diags[i].Check < r.diags[j].Check
	})
	return r.diags
}

// Run applies every analyzer in the list to pkg and returns the merged,
// sorted diagnostics — including the hygiene findings for the
// package's allow comments and //imc: directives.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	r := NewReporter(pkg)
	for _, a := range analyzers {
		a.Run(pkg, r)
	}
	r.diags = append(r.diags, r.suppressionFindings(analyzers)...)
	r.directiveFindings()
	return r.Diagnostics()
}

// --- shared AST helpers -------------------------------------------------

// walkStack is a depth-first traversal that hands the visitor the full
// ancestor stack (outermost first, node last). Returning false prunes
// the subtree.
func walkStack(root ast.Node, visit func(stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !visit(stack) {
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// importedPkgName reports whether expr is an identifier naming an
// imported package with the given import path (e.g. "time"). It prefers
// type information and falls back to matching the file's import table.
func (p *Package) importedPkgName(file *ast.File, expr ast.Expr) (string, bool) {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return "", false
	}
	if p.Info != nil {
		if obj, ok := p.Info.Uses[id]; ok {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path(), true
			}
			return "", false
		}
	}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		} else {
			if i := strings.LastIndex(path, "/"); i >= 0 {
				name = path[i+1:]
			} else {
				name = path
			}
		}
		if name == id.Name {
			return path, true
		}
	}
	return "", false
}

// selectorCall matches expr as a call to pkgpath.fn and returns the
// selector for positioning.
func (p *Package) selectorCall(file *ast.File, call *ast.CallExpr, pkgPath string, names ...string) (*ast.SelectorExpr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	path, ok := p.importedPkgName(file, sel.X)
	if !ok || path != pkgPath {
		return nil, false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return sel, true
		}
	}
	return nil, false
}

// identObject resolves an identifier to its object (def or use).
func identObject(pkg *Package, id *ast.Ident) types.Object {
	if pkg.Info == nil {
		return nil
	}
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}
