package graph

import "math"

// WeightDigest returns a 64-bit FNV-1a digest of the graph's topology
// and edge weights: node count, edge count, and every forward-CSR edge
// (source boundary, target, weight bits) in deterministic order. Two
// graphs digest equal iff they have identical CSR layouts and
// bit-identical weights, so the digest distinguishes "same shape,
// different instance" — the case pure shape checks (node/edge counts)
// let through. Pool snapshots embed it to refuse loading onto a graph
// the samples were not drawn from.
//
// FNV-1a is not cryptographic; it guards against operational mix-ups
// (wrong file for the instance), not adversarial collisions. The
// content-addressed pool cache layers a SHA-256 key on top for
// addressing.
//
// Every constructor hashes the digest once (see derive), so a call is
// a field read; the zero-value Graph reports 0.
func (g *Graph) WeightDigest() uint64 { return g.digest }

// hashWeights computes the digest WeightDigest reports.
func (g *Graph) hashWeights() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(g.n))
	mix(uint64(len(g.outTo)))
	for _, off := range g.outOff {
		mix(uint64(uint32(off)))
	}
	for i, to := range g.outTo {
		mix(uint64(uint32(to)))
		mix(math.Float64bits(g.outW[i]))
	}
	return h
}
