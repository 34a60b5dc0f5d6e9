// Package hotpath is a lint fixture for the compiler-backed hot-path
// contract: want lines mark the heap escapes, missed inlining, and
// loop-indexed bounds checks that go build -gcflags=-m=2 reports in
// //imc:hotpath functions. clean.go holds the idioms that must stay
// silent.
package hotpath

import "fmt"

var (
	sink  []any
	funcs []func() int
)

type state struct{ s [4]uint64 }

// mix is small by AST count (under 130 nodes) but over the compiler's
// inlining budget of 80: only the compiler's own cost model catches it.
func mix(st *state) uint64 {
	r := (st.s[1]*5<<7 | st.s[1]*5>>57) * 9
	t := st.s[1] << 17
	st.s[2] ^= st.s[0]
	st.s[3] ^= st.s[1]
	st.s[1] ^= st.s[2]
	st.s[0] ^= st.s[3]
	st.s[2] ^= t
	st.s[3] = st.s[3]<<45 | st.s[3]>>19
	return r
}

// draw is small enough to inline, but its body calls mix.
func draw(st *state) float64 {
	return float64(mix(st)>>11) / (1 << 53)
}

//imc:hotpath
func overBudget(st *state, n int) uint64 {
	var acc uint64
	for i := 0; i < n; i++ {
		acc += mix(st) // want "does not inline imc/internal/lint/testdata/src/hotpath.mix (function too complex"
	}
	return acc
}

//imc:hotpath
func throughInlined(st *state, n int) float64 {
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += draw(st) // want "draw → imc/internal/lint/testdata/src/hotpath.mix"
	}
	return acc
}

//imc:hotpath
func movedLocal(n int) *int {
	total := 0 // want "total is moved to the heap"
	for i := 0; i < n; i++ {
		total += i
	}
	return &total
}

//imc:hotpath
func boxInLoop(xs []int) {
	for _, x := range xs {
		sink = append(sink, x) // want "escapes to the heap through an interface conversion"
	}
}

//imc:hotpath
func printInLoop(xs []int) string {
	s := ""
	for _, x := range xs {
		s = fmt.Sprint(x) // want "escapes to the heap through an interface conversion"
	}
	return s
}

//imc:hotpath
func closureInLoop(n int) {
	for i := 0; i < n; i++ {
		funcs = append(funcs, func() int { return i }) // want "function literal escapes"
	}
}

//imc:hotpath
func parallel(a, b []int) int {
	t := 0
	for i := range a {
		t += b[i] // want "bounds check (IsInBounds) on b[i]"
	}
	return t
}

//imc:hotpath
func windows(a, b []int, w int) int {
	t := 0
	for i := 0; i+w <= len(a); i++ {
		t += len(b[i : i+w]) // want "bounds check (IsSliceInBounds) on b[i:i + w]"
	}
	return t
}

// Not annotated: the same patterns are legal off the hot path.
func coldParallel(a, b []int, st *state) int {
	t := 0
	for i := range a {
		t += b[i] + int(mix(st))
	}
	return t
}
