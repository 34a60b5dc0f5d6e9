//go:build amd64

package ric

import "unsafe"

// Compile-time layout pins for the structs the structlayout and
// falseshare analyzers hold to a contract. A constant index into a
// one-element array compiles only when the expression is zero, so any
// field addition or reorder that changes a pinned size breaks the
// build here — with this file naming the contract — instead of
// silently regressing sample-pool memory traffic. Sizes are the
// gc/amd64 model (the canonical layout model in internal/lint), hence
// the build tag.
var (
	// Sample is //imc:compact: four int32s (community, threshold,
	// member count, touch count), 16 bytes so a million-sample pool
	// stays in 16 MB before cover storage.
	_ = [1]struct{}{}[unsafe.Sizeof(Sample{})-16]

	// rawSample is //imc:padded to exactly one 64-byte cache line:
	// workers write interleaved slots at stride |workers|, so any size
	// drift would put two workers' slots on one line.
	_ = [1]struct{}{}[unsafe.Sizeof(rawSample{})-64]

	// Generator packs pointers first, then its one int32 epoch
	// counter (padded to a word), then seven slice headers of flat
	// slot-indexed scratch: 208 bytes.
	_ = [1]struct{}{}[unsafe.Sizeof(Generator{})-208]
)
