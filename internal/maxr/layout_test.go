//go:build amd64

package maxr

import "unsafe"

// Compile-time layout pins (gc/amd64): a constant index into a
// one-element array compiles only when the expression is zero, so a
// size-changing edit to these structs fails the build here instead of
// silently regressing the CELF queue or the BT instances.
var (
	// celfItem is //imc:compact: gain + node + round in 16 bytes, four
	// heap items per cache line (was 24 bytes before round narrowed to
	// int32).
	_ = [1]struct{}{}[unsafe.Sizeof(celfItem{})-16]

	// btInstance is //imc:compact: seven slice headers, 168 bytes, no
	// scalar fields to pad around.
	_ = [1]struct{}{}[unsafe.Sizeof(btInstance{})-168]
)
