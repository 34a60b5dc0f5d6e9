package lint

import (
	"go/ast"
	"go/types"
)

// FalseShare finds the classic parallel-kernel performance bug the race
// detector cannot see: distinct goroutines writing bytes that never
// overlap but live in the same 64-byte cache line, so every write
// invalidates the other workers' copies and the "parallel" scan
// serializes on line ownership. It reads the function's goroutine
// spawns — `go func(...){…}` literals and the variables they capture —
// against the canonical layout model from layout.go.
//
// Two shapes fire:
//
//  1. Per-worker slots in one slice: a spawned literal writes s[i]
//     (or s[i].f, s[i]++) where s is a slice declared OUTSIDE the
//     literal and the element size is not a multiple of the cache
//     line. The spawn must be plural — the go statement sits in a loop
//     with a worker-varying index, or at least two distinct go
//     statements write the same slice. The `partial[w] = sum`
//     per-worker-accumulator pattern is the target.
//
//  2. Sibling fields: two distinct go statements write different
//     fields of one shared struct whose offsets land in the same
//     64-byte line.
//
// The sanctioned fix is to pad the per-worker element type to the line
// size and annotate it `//imc:padded` — which this analyzer then
// verifies: an annotated struct whose size is not a line multiple gets
// its own finding, so the padding cannot silently rot as fields are
// added. Elements that are already line-multiples (padded or naturally
// large) are clean, as is accumulating into goroutine-local state and
// publishing once after the join.
var FalseShare = &Analyzer{
	Name: "falseshare",
	Doc:  "flag per-worker writes from distinct goroutines that share a 64-byte cache line (unpadded per-worker slices, sibling struct fields); verify //imc:padded types",
	Kind: KindFlowSensitive,
	Run:  runFalseShare,
}

func runFalseShare(pkg *Package, r *Reporter) {
	if pkg.Info == nil {
		return
	}
	padded := paddedTypeNames(pkg, r)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFalseShare(pkg, fd, padded, r)
		}
	}
}

// paddedTypeNames collects the package's //imc:padded struct types and
// verifies each one really is a cache-line multiple — the annotation is
// a checked contract, not a comment.
func paddedTypeNames(pkg *Package, r *Reporter) map[*types.TypeName]bool {
	out := make(map[*types.TypeName]bool)
	dirs := typeDirectives(pkg)
	for ts, set := range dirs {
		if !set[directivePadded] {
			continue
		}
		obj, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
		if obj == nil {
			continue
		}
		st, isStruct := obj.Type().Underlying().(*types.Struct)
		if !isStruct {
			continue // structlayout reports the misplaced directive
		}
		out[obj] = true
		if sz := sizeOf(st); sz >= 0 && sz%cacheLineBytes != 0 {
			r.Reportf("falseshare", ts.Pos(),
				"//imc:padded struct %s is %d bytes — not a multiple of the %d-byte cache line, so adjacent elements still share lines; grow the pad (e.g. _ [%d]byte) to the next line boundary",
				ts.Name.Name, sz, cacheLineBytes, cacheLineBytes-sz%cacheLineBytes)
		}
	}
	return out
}

// goSpawn is one `go func(...){…}` site of the function under check.
type goSpawn struct {
	stmt *ast.GoStmt
	lit  *ast.FuncLit
	// inLoop records whether the spawn itself sits inside a loop — the
	// worker fan-out shape, where one site stands for many goroutines.
	inLoop bool
}

// elemWrite is one element write to a shared slice from a spawned
// goroutine.
type elemWrite struct {
	spawn    *goSpawn
	base     types.Object
	elem     types.Type
	elemSize int64
	constIdx bool
	pos      ast.Node
}

// fieldWrite is one field write to a shared struct value from a spawned
// goroutine.
type fieldWrite struct {
	spawn *goSpawn
	root  types.Object
	field *types.Var
	off   int64
	pos   ast.Node
}

func checkFalseShare(pkg *Package, fd *ast.FuncDecl, padded map[*types.TypeName]bool, r *Reporter) {
	var spawns []*goSpawn
	walkStack(fd.Body, func(stack []ast.Node) bool {
		g, ok := stack[len(stack)-1].(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		inLoop := false
		for _, anc := range stack[:len(stack)-1] {
			switch anc.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				inLoop = true
			}
		}
		spawns = append(spawns, &goSpawn{stmt: g, lit: lit, inLoop: inLoop})
		return true
	})
	if len(spawns) == 0 {
		return
	}

	var elems []elemWrite
	var fields []fieldWrite
	for _, sp := range spawns {
		collectSpawnWrites(pkg, sp, &elems, &fields)
	}
	reportElemSharing(pkg, elems, padded, r)
	reportFieldSharing(pkg, fields, r)
}

// collectSpawnWrites gathers the writes sp's goroutine performs against
// state declared outside its literal.
func collectSpawnWrites(pkg *Package, sp *goSpawn, elems *[]elemWrite, fields *[]fieldWrite) {
	record := func(lhs ast.Expr, at ast.Node) {
		// Unwrap field/deref chains down to the indexed or rooted form:
		// s[i], s[i].f, st.f, (*p).f.
		e := lhs
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if idx, fv, off := selectorFieldOffset(pkg, x); idx == nil && fv != nil {
					// Pure field chain (no index): a struct-field write.
					if root := outerRootObject(pkg, sp.lit, x); root != nil {
						*fields = append(*fields, fieldWrite{spawn: sp, root: root, field: fv, off: off, pos: at})
					}
					return
				}
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				recordIndexWrite(pkg, sp, x, at, elems)
				return
			default:
				return
			}
		}
	}
	ast.Inspect(sp.lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				record(lhs, s)
			}
		case *ast.IncDecStmt:
			record(s.X, s)
		}
		return true
	})
}

// recordIndexWrite files s[i]-shaped writes whose base slice is
// declared outside the spawned literal.
func recordIndexWrite(pkg *Package, sp *goSpawn, idx *ast.IndexExpr, at ast.Node, elems *[]elemWrite) {
	tv, ok := pkg.Info.Types[idx.X]
	if !ok || tv.Type == nil {
		return
	}
	slice, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return
	}
	base := sliceBaseObject(pkg, idx.X)
	if base == nil || !declaredOutside(sp.lit, base) {
		return
	}
	itv := pkg.Info.Types[idx.Index]
	*elems = append(*elems, elemWrite{
		spawn:    sp,
		base:     base,
		elem:     slice.Elem(),
		elemSize: sizeOf(slice.Elem()),
		constIdx: itv.Value != nil,
		pos:      at,
	})
}

// selectorFieldOffset resolves sel as a (possibly nested) field chain:
// it returns the innermost IndexExpr if the chain crosses one (the
// write is then an element write, handled elsewhere), or the selected
// field and its byte offset from the chain's root struct.
func selectorFieldOffset(pkg *Package, sel *ast.SelectorExpr) (*ast.IndexExpr, *types.Var, int64) {
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, nil, 0
	}
	fv, ok := s.Obj().(*types.Var)
	if !ok {
		return nil, nil, 0
	}
	// Reject chains that pass through an index — that is slice-element
	// territory.
	for e := sel.X; ; {
		switch x := e.(type) {
		case *ast.IndexExpr:
			return x, nil, 0
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			// Root reached. Offset of the full embedding path from the
			// root's struct type.
			rt := derefType(exprType(pkg, e))
			if rt == nil {
				return nil, nil, 0
			}
			st, ok := rt.Underlying().(*types.Struct)
			if !ok || !sizeableType(st) {
				return nil, nil, 0
			}
			off, ok := pathOffset(st, s.Index())
			if !ok {
				return nil, nil, 0
			}
			return nil, fv, off
		}
	}
}

// pathOffset walks a selection index path from st, accumulating field
// offsets. It stops (not ok) if the path crosses a pointer — the target
// then lives in its own allocation, not inside st's bytes.
func pathOffset(st *types.Struct, path []int) (int64, bool) {
	var off int64
	cur := st
	for step, i := range path {
		if i >= cur.NumFields() {
			return 0, false
		}
		f := cur.Field(i)
		vars := make([]*types.Var, cur.NumFields())
		for j := range vars {
			vars[j] = cur.Field(j)
		}
		off += layoutSizes.Offsetsof(vars)[i]
		if step == len(path)-1 {
			break
		}
		if _, isPtr := f.Type().Underlying().(*types.Pointer); isPtr {
			return 0, false
		}
		next, ok := f.Type().Underlying().(*types.Struct)
		if !ok {
			return 0, false
		}
		cur = next
	}
	return off, true
}

// exprType returns expr's type (named form preserved), nil when unknown.
func exprType(pkg *Package, expr ast.Expr) types.Type {
	tv, ok := pkg.Info.Types[expr]
	if !ok {
		return nil
	}
	return tv.Type
}

// derefType unwraps one level of pointer.
func derefType(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// outerRootObject resolves the root identifier of a selector chain to
// its object when that object is declared outside lit (shared with the
// spawning function, hence with every sibling goroutine).
func outerRootObject(pkg *Package, lit *ast.FuncLit, sel *ast.SelectorExpr) types.Object {
	e := ast.Expr(sel)
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj := pkg.Info.Uses[x]
			if obj == nil {
				obj = pkg.Info.Defs[x]
			}
			if obj == nil || !declaredOutside(lit, obj) {
				return nil
			}
			if _, isVar := obj.(*types.Var); !isVar {
				return nil
			}
			return obj
		default:
			return nil
		}
	}
}

// declaredOutside reports whether obj's declaration lies outside lit —
// a free variable of the goroutine, shared with its siblings.
func declaredOutside(lit *ast.FuncLit, obj types.Object) bool {
	return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
}

// elemTypeName resolves t to its named type's TypeName, nil for
// unnamed types.
func elemTypeName(t types.Type) *types.TypeName {
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// reportElemSharing groups the element writes by slice and fires when
// the spawn is plural and the element is not line-padded.
func reportElemSharing(pkg *Package, writes []elemWrite, padded map[*types.TypeName]bool, r *Reporter) {
	reported := make(map[types.Object]bool)
	spawnsOf := make(map[types.Object]map[*goSpawn]bool)
	for _, w := range writes {
		if spawnsOf[w.base] == nil {
			spawnsOf[w.base] = make(map[*goSpawn]bool)
		}
		spawnsOf[w.base][w.spawn] = true
	}
	for _, w := range writes {
		if reported[w.base] {
			continue
		}
		if w.elemSize <= 0 || w.elemSize%cacheLineBytes == 0 {
			continue // unknown, zero-size, or already line-aligned
		}
		if tn := elemTypeName(w.elem); tn != nil && padded[tn] {
			continue // annotated; size drift is reported at the type
		}
		plural := (w.spawn.inLoop && !w.constIdx) || len(spawnsOf[w.base]) >= 2
		if !plural {
			continue
		}
		reported[w.base] = true
		perLine := cacheLineBytes / w.elemSize
		if perLine < 2 {
			perLine = 2 // straddling: one element spans lines it shares
		}
		r.Reportf("falseshare", w.pos.Pos(),
			"distinct goroutines write elements of %s (%d-byte %s, %d per %d-byte cache line): neighboring writers invalidate each other's lines and the parallel scan serializes on line ownership; pad the element type to the line size and annotate it //imc:padded, or accumulate per worker and store once after the join",
			w.base.Name(), w.elemSize, w.elem.String(), perLine, cacheLineBytes)
	}
}

// reportFieldSharing fires when two distinct spawn sites write
// different fields of the same shared struct inside one cache line.
func reportFieldSharing(pkg *Package, writes []fieldWrite, r *Reporter) {
	reportedRoot := make(map[types.Object]bool)
	for i, a := range writes {
		if reportedRoot[a.root] {
			continue
		}
		for _, b := range writes[i+1:] {
			if b.root != a.root || b.spawn == a.spawn || b.field == a.field {
				continue
			}
			if a.off/cacheLineBytes != b.off/cacheLineBytes {
				continue
			}
			reportedRoot[a.root] = true
			gap := b.off - a.off
			if gap < 0 {
				gap = -gap
			}
			r.Reportf("falseshare", a.pos.Pos(),
				"goroutines spawned at lines %d and %d write fields %s and %s of shared %s, %d bytes apart in the same %d-byte cache line; insulate the hot fields with padding or give each goroutine its own copy",
				pkg.Fset.Position(a.spawn.stmt.Pos()).Line, pkg.Fset.Position(b.spawn.stmt.Pos()).Line,
				a.field.Name(), b.field.Name(), a.root.Name(), gap, cacheLineBytes)
			break
		}
	}
}
