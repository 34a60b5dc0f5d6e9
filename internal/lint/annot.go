package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// annot.go parses the `//imc:` directive comments that opt
// declarations into the suite's contracts:
//
//	//imc:hotpath   — the function is on the sampling hot path; the
//	                  allocfree, hotpath, ifacedispatch and valuecopy
//	                  analyzers hold its loops to their contracts.
//	//imc:longrun   — the function is a long-running compute entry
//	                  point; the ctxplumb analyzer requires it to take
//	                  context.Context first and to forward that context
//	                  to any longrun callee.
//	//imc:compact   — a STRUCT TYPE directive: the struct's field order
//	                  must be padding-minimal; the structlayout analyzer
//	                  reports ANY reorderable padding waste on it.
//	//imc:padded    — a STRUCT TYPE directive: the struct is a
//	                  per-worker slot deliberately padded to the 64-byte
//	                  cache line; the falseshare analyzer verifies its
//	                  size is a line multiple and exempts slices of it
//	                  from false-sharing findings; structlayout skips it
//	                  (the padding is the point).
//
// Grammar: the directive must be its own comment line in the doc
// comment of the declaration it applies to — a function declaration
// for hotpath/longrun, a type declaration for compact/padded — exactly
// `//imc:<name>` with optional trailing prose after a space. Like
// `//go:` directives there is no space after the slashes. A directive
// anywhere else, or with any other name, would silently do nothing, so
// directiveFindings reports it.

const (
	directiveHotPath = "hotpath"
	directiveLongRun = "longrun"
	directiveCompact = "compact"
	directivePadded  = "padded"
)

// directiveTargets maps each known directive to the declaration kind
// whose doc comment it must sit in.
var directiveTargets = map[string]token.Token{
	directiveHotPath: token.FUNC,
	directiveLongRun: token.FUNC,
	directiveCompact: token.TYPE,
	directivePadded:  token.TYPE,
}

// directiveCheck is the pseudo-check name for directive hygiene
// findings. Like suppression findings, they cannot be allowed away.
const directiveCheck = "directive"

// parseDirective extracts the name of an `//imc:` directive comment
// ("hotpath" from "//imc:hotpath — inner sampling loop").
func parseDirective(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, "//imc:")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// funcDirectives returns the set of //imc: directives in each function
// declaration's doc comment. Directives anywhere else are reported by
// directiveFindings, not returned here.
func funcDirectives(pkg *Package) map[*ast.FuncDecl]map[string]bool {
	out := make(map[*ast.FuncDecl]map[string]bool)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if name, ok := parseDirective(c.Text); ok {
					set := out[fd]
					if set == nil {
						set = make(map[string]bool)
						out[fd] = set
					}
					set[name] = true
				}
			}
		}
	}
	return out
}

// hasDirective reports whether fd carries //imc:<name>.
func hasDirective(dirs map[*ast.FuncDecl]map[string]bool, fd *ast.FuncDecl, name string) bool {
	return dirs[fd][name]
}

// typeDirectives returns the set of //imc: directives attached to each
// type declaration of the package. A directive counts when it sits in
// the TypeSpec's own doc comment or — for the common unparenthesized
// `type Foo struct{…}` form — in the enclosing GenDecl's doc comment.
func typeDirectives(pkg *Package) map[*ast.TypeSpec]map[string]bool {
	out := make(map[*ast.TypeSpec]map[string]bool)
	add := func(ts *ast.TypeSpec, doc *ast.CommentGroup) {
		if doc == nil {
			return
		}
		for _, c := range doc.List {
			if name, ok := parseDirective(c.Text); ok {
				set := out[ts]
				if set == nil {
					set = make(map[string]bool)
					out[ts] = set
				}
				set[name] = true
			}
		}
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if len(gd.Specs) == 1 {
					add(ts, gd.Doc)
				}
				add(ts, ts.Doc)
			}
		}
	}
	return out
}

// directiveFindings files every //imc: directive of the package that
// does nothing: one whose name is unknown, and a known one that is not
// in the doc comment of the declaration kind it applies to (the places
// funcDirectives and typeDirectives read).
func (r *Reporter) directiveFindings() {
	pkg := r.pkg
	for _, f := range pkg.Files {
		placed := make(map[*ast.Comment]token.Token)
		mark := func(doc *ast.CommentGroup, kind token.Token) {
			if doc == nil {
				return
			}
			for _, c := range doc.List {
				placed[c] = kind
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				mark(d.Doc, token.FUNC)
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				if len(d.Specs) == 1 {
					mark(d.Doc, token.TYPE)
				}
				for _, spec := range d.Specs {
					mark(spec.(*ast.TypeSpec).Doc, token.TYPE)
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				var msg string
				switch target, known := directiveTargets[name]; {
				case !known:
					msg = fmt.Sprintf("unknown directive //imc:%s; the known directives are //imc:hotpath, //imc:longrun, //imc:compact and //imc:padded", name)
				case placed[c] != target:
					msg = fmt.Sprintf("//imc:%s is not in the doc comment of a %s declaration, so it applies to nothing", name, target)
				default:
					continue
				}
				r.diags = append(r.diags, Diagnostic{Check: directiveCheck, Pos: pkg.Fset.Position(c.Pos()), Message: msg})
			}
		}
	}
}
