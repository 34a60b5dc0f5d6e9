// Package dep supplies the callees for the transitive fixture: the
// interesting effects sit one and two frames below the annotated
// callers in the parent package.
package dep

// Level1 forwards to level2 — the allocation is one more frame down.
func Level1(n int) int { return level2(n) }

func level2(n int) int {
	buf := make([]int, n)
	return len(buf)
}

// Sum is transitively clean: no allocation, no observable effects.
func Sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// Carve allocates at depth 0 of its own annotated declaration — a
// checked boundary the transitive walk must stop at, not chase.
//
//imc:hotpath
func Carve(n int) []int {
	return make([]int, n)
}
