package hotpath

// The clean side of the contract: every function here is hot, indexes
// slices or calls helpers in its loops, and must produce zero findings.
// TestBCEIdiomTable pins the idiom* entries by name.

//imc:hotpath
func idiomRangeSelf(s []int) int {
	t := 0
	for i := range s {
		t += s[i]
	}
	return t
}

//imc:hotpath
func idiomResliced(tos []int32, ws []float64) float64 {
	ws = ws[:len(tos)]
	t := 0.0
	for i := range tos {
		t += ws[i]
	}
	return t
}

//imc:hotpath
func idiomGather(vals []float64, idx []int) float64 {
	t := 0.0
	for _, v := range idx {
		t += vals[v] // data-dependent gather: the check stays, the index is data
	}
	return t
}

//imc:hotpath
func idiomHoistedLen(s []int) int {
	n := len(s)
	t := 0
	for i := 0; i < n; i++ {
		t += s[i]
	}
	return t
}

// small inlines at every call site.
func small(x int) int { return x*2 + 1 }

//imc:hotpath
func inlinedHelper(s []int) int {
	t := 0
	for i := range s {
		t += small(s[i])
	}
	return t
}

// kernel is over the inlining budget but hot itself: its contracts are
// checked at its declaration, so calling it from a hot loop is fine.
//
//imc:hotpath
func kernel(st *state) uint64 {
	return mix(st) ^ mix(st)
}

//imc:hotpath
func callsKernel(st *state, n int) uint64 {
	var acc uint64
	for i := 0; i < n; i++ {
		acc += kernel(st)
	}
	return acc
}

var cells []*int

// cell is a hot callee that inlines into its caller's loop. The
// compiler prints its heap move there at the caller's call site; the
// move is cell's, reported at cell's own declaration.
//
//imc:hotpath
func cell(v int) *int {
	x := v // want "x is moved to the heap in hot function cell"
	return &x
}

//imc:hotpath
func callsCell(n int) {
	for i := 0; i < n; i++ {
		cells = append(cells, cell(i))
	}
}

var bufs [][]int

// An escaping in-loop make is an allocation: allocfree's finding, not
// hotpath's.
//
//imc:hotpath
func allocInLoop(n int) {
	for i := 0; i < n; i++ {
		bufs = append(bufs, make([]int, i))
	}
}
