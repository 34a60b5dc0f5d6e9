// Package transitive is the interprocedural golden fixture: annotated
// hot paths whose violations live in callees of the nested package dep, one and two frames down. It is loaded together
// with ./dep by interproc_test.go — a bare single-package load cannot
// resolve the cross-package edges, and the analyzers degrade to their
// intra-procedural behavior.
package transitive

import "imc/internal/lint/testdata/src/transitive/dep"

// Hot's loop calls a helper that only allocates two frames down; the
// finding must print the full call chain to the evidence.
//
//imc:hotpath
func Hot(xs []int) int {
	total := 0
	for _, x := range xs {
		total += dep.Level1(x) // want "may allocate transitively: Hot → imc/internal/lint/testdata/src/transitive/dep.Level1 → imc/internal/lint/testdata/src/transitive/dep.level2 (calls make at dep.go:"
	}
	return total
}

// HotClean exercises the two non-findings: a transitively clean callee
// and an //imc:hotpath boundary enforced at its own declaration.
//
//imc:hotpath
func HotClean(xs []int) int {
	total := 0
	for range xs {
		total += dep.Sum(xs)
		total += len(dep.Carve(8))
	}
	return total
}

// HotOnce calls the allocating chain outside any loop — legal under
// the hot-path contract (setup cost, not per-iteration cost).
//
//imc:hotpath
func HotOnce(n int) int {
	return dep.Level1(n)
}
