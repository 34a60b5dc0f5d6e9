package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SeedPlumb enforces the sampling packages' parallel-determinism
// contract: any exported function or method in ric, diffusion, or
// maxr that spawns worker goroutines must be driven by caller-supplied
// randomness — an *xrand.RNG parameter, an integer seed parameter, or
// an options/receiver struct carrying a Seed or *xrand.RNG field. A
// worker fan-out with no seed input has nowhere to split deterministic
// per-task streams from, so its output would depend on scheduling.
var SeedPlumb = &Analyzer{
	Name: "seedplumb",
	Doc:  "exported functions that spawn workers must accept an xrand stream or seed (directly or via an options/receiver struct)",
	Kind: KindSyntactic,
	Run:  runSeedPlumb,
}

const xrandPath = "imc/internal/xrand"

func runSeedPlumb(pkg *Package, r *Reporter) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if !spawnsGoroutine(fd.Body) {
				continue
			}
			if funcAcceptsSeed(pkg, fd) {
				continue
			}
			r.Reportf("seedplumb", fd.Name.Pos(),
				"exported %s spawns worker goroutines but accepts no xrand stream or seed; deterministic parallelism needs caller-supplied randomness", fd.Name.Name)
		}
	}
}

// spawnsGoroutine reports whether body contains a go statement.
func spawnsGoroutine(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			found = true
		}
		return !found
	})
	return found
}

// funcAcceptsSeed checks the receiver and every parameter for a seed
// source.
func funcAcceptsSeed(pkg *Package, fd *ast.FuncDecl) bool {
	if pkg.Info == nil {
		return true // cannot prove a violation without types
	}
	obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return true
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return true
	}
	if recv := sig.Recv(); recv != nil && typeCarriesSeed(recv.Type(), recv.Name()) {
		return true
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		if typeCarriesSeed(p.Type(), p.Name()) {
			return true
		}
	}
	return false
}

// typeCarriesSeed reports whether a value of type t named name can act
// as a randomness source: an xrand.RNG (pointer or value), an integer
// whose name mentions "seed", or a struct with such a field.
func typeCarriesSeed(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return typeCarriesSeed(ptr.Elem(), name)
	}
	if isXrandRNG(t) {
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 &&
		strings.Contains(strings.ToLower(name), "seed") {
		return true
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			ft := f.Type()
			if ptr, ok := ft.Underlying().(*types.Pointer); ok {
				ft = ptr.Elem()
			}
			if isXrandRNG(ft) {
				return true
			}
			if b, ok := ft.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 &&
				strings.Contains(strings.ToLower(f.Name()), "seed") {
				return true
			}
		}
	}
	return false
}

// isXrandRNG matches the named type imc/internal/xrand.RNG.
func isXrandRNG(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "RNG" && obj.Pkg() != nil && obj.Pkg().Path() == xrandPath
}
