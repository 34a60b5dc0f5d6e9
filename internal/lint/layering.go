package lint

import (
	"fmt"
	"go/token"
	"os"
	"strings"
)

// The layering analyzer enforces the module's import DAG contract: a
// checked-in file (internal/lint/layers.txt) lists the module's
// packages bottom-up in layers, and a package may import only packages
// in the same or a lower layer. The contract makes the architecture a
// build-failing fact instead of a README aspiration: `ric` and
// `diffusion` (sampling kernels) can never grow a dependency on `maxr`
// or `serve` (orchestration) without the diff touching layers.txt,
// where the inversion is visible at review time.
//
// Contract file grammar (one layer per line, bottom-up):
//
//	# comment
//	layer internal/clock internal/xrand
//	layer internal/graph
//	layer cmd/* examples/*
//
// Paths are module-relative ("." is the module root package); a
// trailing "/*" matches a directory's immediate children. Every loaded
// package must be covered — an unlisted package is itself a finding,
// so the contract cannot silently rot as packages are added.

// layerContract is the parsed layering contract.
type layerContract struct {
	// exact maps a module-relative package path to its layer index.
	exact map[string]int
	// globs maps a directory prefix ("cmd") to a layer index, matching
	// that directory's immediate children.
	globs map[string]int
	// names renders each layer for findings ("layer 3 (internal/ric …)").
	names []string
}

// parseLayers parses the contract file.
func parseLayers(path string) (*layerContract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lc := &layerContract{exact: make(map[string]int), globs: make(map[string]int)}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rest, ok := strings.CutPrefix(line, "layer")
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			return nil, fmt.Errorf("%s:%d: expected \"layer pkg pkg …\", got %q", path, ln+1, line)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("%s:%d: empty layer", path, ln+1)
		}
		idx := len(lc.names)
		for _, f := range fields {
			if dir, ok := strings.CutSuffix(f, "/*"); ok {
				if _, dup := lc.globs[dir]; dup {
					return nil, fmt.Errorf("%s:%d: %s/* listed twice", path, ln+1, dir)
				}
				lc.globs[dir] = idx
				continue
			}
			if _, dup := lc.exact[f]; dup {
				return nil, fmt.Errorf("%s:%d: %s listed twice", path, ln+1, f)
			}
			lc.exact[f] = idx
		}
		lc.names = append(lc.names, strings.Join(fields, " "))
	}
	if len(lc.names) == 0 {
		return nil, fmt.Errorf("%s: contract declares no layers", path)
	}
	return lc, nil
}

// layerOf resolves a module-relative package path to its layer index;
// ok is false for packages the contract does not cover.
func (lc *layerContract) layerOf(rel string) (int, bool) {
	if idx, ok := lc.exact[rel]; ok {
		return idx, true
	}
	if i := strings.LastIndex(rel, "/"); i > 0 {
		if idx, ok := lc.globs[rel[:i]]; ok {
			return idx, true
		}
	}
	return 0, false
}

// layers returns the program's parsed contract, reading LayersPath once.
func (p *Program) layersContract() (*layerContract, error) {
	if !p.layersSet {
		p.layersSet = true
		p.layers, p.layersErr = parseLayers(p.LayersPath)
	}
	return p.layers, p.layersErr
}

// relPath maps an import path inside the module to its module-relative
// form ("." for the root package); ok is false for external paths.
func (p *Program) relPath(importPath string) (string, bool) {
	if importPath == p.ModulePath {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(importPath, p.ModulePath+"/"); ok {
		return rest, true
	}
	return "", false
}

// Layering enforces the import-DAG contract in layers.txt.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "module-internal imports must respect the layer contract in internal/lint/layers.txt",
	Kind: KindInterprocedural,
	Run:  checkLayering,
}

func checkLayering(pkg *Package, r *Reporter) {
	prog := pkg.Prog
	if prog == nil {
		return // bare fixture load: no program, no contract
	}
	lc, err := prog.layersContract()
	if err != nil {
		r.ReportAt("layering", token.Position{Filename: prog.LayersPath, Line: 1},
			"cannot load layering contract: %v", err)
		return
	}
	rel, ok := prog.relPath(pkg.Path)
	if !ok {
		return
	}
	pkgLayer, ok := lc.layerOf(rel)
	if !ok {
		pos := pkg.Fset.Position(firstFilePos(pkg))
		r.ReportAt("layering", pos,
			"package %s is not covered by the layering contract; add it to %s", rel, prog.LayersPath)
		return
	}
	for _, file := range pkg.Files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			impRel, ok := prog.relPath(path)
			if !ok {
				continue // stdlib: outside the contract
			}
			impLayer, ok := lc.layerOf(impRel)
			if !ok {
				r.Reportf("layering", imp.Pos(),
					"import of %s, which is not covered by the layering contract", impRel)
				continue
			}
			if impLayer > pkgLayer {
				r.Reportf("layering", imp.Pos(),
					"upward import: %s (layer %d: %s) may not import %s (layer %d: %s)",
					rel, pkgLayer, lc.names[pkgLayer], impRel, impLayer, lc.names[impLayer])
			}
		}
	}
}

// firstFilePos returns a stable position inside pkg for package-level
// findings: the package clause of the first (sorted-order) file.
func firstFilePos(pkg *Package) token.Pos {
	if len(pkg.Files) == 0 {
		return token.NoPos
	}
	return pkg.Files[0].Package
}
