//go:build amd64

package stats

import "unsafe"

// Compile-time layout pin (gc/amd64): Running is //imc:compact — three
// words, 24 bytes, no padding. The constant index compiles only when
// the size is exactly 24, so a field addition or reorder fails the
// build here instead of silently growing every per-estimator
// accumulator.
var _ = [1]struct{}{}[unsafe.Sizeof(Running{})-24]
