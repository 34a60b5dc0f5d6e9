// Package directives is a lint fixture for //imc: directive hygiene: a
// directive with an unknown name, or a known one outside the doc
// comment of the declaration it applies to, would silently do nothing.
package directives

// misspelled looks annotated, but no analyzer knows the name, so the
// hot-path contracts never see it.
//
//imc:hotpth // want "unknown directive //imc:hotpth"
func misspelled(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

//imc:hotpath // want "//imc:hotpath is not in the doc comment of a func declaration"

// detached sits one blank line below its directive, so the directive
// is a free-floating comment, not part of this doc comment.
func detached(xs []int) int {
	total := 0
	for _, x := range xs {
		//imc:hotpath // want "//imc:hotpath is not in the doc comment of a func declaration"
		total += x
	}
	return total
}

// wrongKind carries a type directive on a function and a function
// directive on a type.
//
//imc:compact // want "//imc:compact is not in the doc comment of a type declaration"
func wrongKind() {}

// slot is a struct, but longrun applies to functions.
//
//imc:longrun // want "//imc:longrun is not in the doc comment of a func declaration"
type slot struct {
	mu    int
	count int //imc:guardedby mu // want "unknown directive //imc:guardedby"
}

// annotated and compactPair are correctly placed: no findings.
//
//imc:hotpath
func annotated(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// compactPair is a padding-minimal struct.
//
//imc:compact
type compactPair struct {
	a, b int64
}

var _ = []any{misspelled, detached, wrongKind, slot{}, annotated, compactPair{}}
