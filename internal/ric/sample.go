// Package ric implements Reverse Influenceable Community sampling — the
// paper's Section III — and the sample-pool machinery every IMC
// algorithm is built on.
//
// A RIC sample g is drawn by (1) picking a source community C_g with
// probability proportional to its benefit, (2) sampling a deterministic
// subgraph G_g of the social graph by a single shared reverse
// breadth-first search from all of C_g's members (each edge's live/
// blocked state is decided at most once per sample — paper Alg. 1's
// st[] array), and (3) recording, for every node v, which members of
// C_g v can reach inside G_g. A seed set S "influences" g iff it reaches
// at least h_g distinct members.
//
// Lemma 1 of the paper: c(S) = b · E[X_g(S)], so the fraction of pooled
// samples a seed set influences is an unbiased estimator of its expected
// community benefit.
package ric

import (
	"imc/internal/graph"
)

// Sample is one RIC sample. Nodes' member-coverage lives in the pool's
// inverted index; the sample itself carries only the source community
// metadata. The pool holds one per sample — millions at scale — so
// the layout is pinned waste-free (four int32s, 16 bytes).
//
//imc:compact
type Sample struct {
	// Comm is the source community's index within the partition.
	Comm int32
	// Threshold is h_g: the number of distinct members a seed set must
	// reach to influence the sample.
	Threshold int32
	// NumMembers is |C_g|; member bit j corresponds to
	// partition.Community(Comm).Members[j].
	NumMembers int32
	// TouchCount is the number of distinct nodes that touch the sample
	// (size of its cover set); used by MAF's node-frequency heuristic.
	TouchCount int32
}

// rawSample is a fully materialized sample as produced by the generator
// or the pool decoder, before fold adds it to a pool's inverted index.
// GenerateCtx's workers store into raws[i] with a stride-|workers|
// interleave, so neighboring slots belong to different goroutines: at
// exactly one 64-byte cache line per slot (3×int32 + pad + two slice
// headers) no two workers ever share a line (the falseshare contract
// verifies the size).
//
//imc:padded
type rawSample struct {
	comm       int32
	threshold  int32
	numMembers int32
	// coverNodes lists the nodes that touch the sample; node
	// coverNodes[i] covers the members set in coverBits' i-th run of
	// maskWords(numMembers) words (the sample's natural width, not the
	// pool's padded one).
	coverNodes []graph.NodeID
	coverBits  []uint64
}
