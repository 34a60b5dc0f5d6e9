package poolcache

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/graph"
)

// Key is the content address of one pool identity: a SHA-256 digest
// over everything that determines the sample sequence — the weighted
// graph (topology and exact edge weights), the community partition
// (members, thresholds, benefits), the diffusion model, and the PRNG
// seed. Two requests with equal keys are guaranteed (modulo SHA-256
// collisions) to draw identical samples, so one cached pool serves
// both; anything that could change even one sample changes the key.
//
// Deliberately absent: solver parameters (k, eps, delta, algorithm).
// Those shape how many samples a run consumes, never what any sample
// contains, so pools cached under one configuration are reusable by
// every other — the whole point of the cache.
type Key [sha256.Size]byte

// String returns the key as lowercase hex — also the cache file stem.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// parseKey inverts String; ok is false for anything that is not
// exactly 64 lowercase-insensitive hex digits.
func parseKey(s string) (Key, bool) {
	var k Key
	if len(s) != 2*sha256.Size {
		return k, false
	}
	if _, err := hex.Decode(k[:], []byte(s)); err != nil {
		return k, false
	}
	return k, true
}

// KeyFor computes the content address of (g, part, model, seed). The
// serialization it hashes is canonical: CSR order for edges (the Graph
// representation is itself canonical — builders sort adjacency), member
// order for communities (Partition stores members ascending), raw IEEE
// bits for weights and benefits. A leading version tag keeps old cache
// files from aliasing new keys when the layout or the sampler changes:
// v2 is the first key of the count-then-positions sampler (IMCP v3), so
// a cached v2-era prefix is never looked up, let alone extended.
func KeyFor(g *graph.Graph, part *community.Partition, model diffusion.Model, seed uint64) Key {
	h := sha256.New()
	w := bufio.NewWriterSize(h, 1<<16)
	var scratch [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		w.Write(scratch[:4])
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		w.Write(scratch[:])
	}
	putF := func(v float64) { put64(math.Float64bits(v)) }

	io.WriteString(w, "imc poolcache key v2\n")
	put64(uint64(g.NumNodes()))
	put64(uint64(g.NumEdges()))
	for u := 0; u < g.NumNodes(); u++ {
		tos, ws := g.OutNeighbors(graph.NodeID(u))
		put32(uint32(len(tos)))
		for i, v := range tos {
			put32(uint32(v))
			putF(ws[i])
		}
	}
	put64(uint64(part.NumNodes()))
	put64(uint64(part.NumCommunities()))
	for c := 0; c < part.NumCommunities(); c++ {
		comm := part.Community(c)
		put64(uint64(len(comm.Members)))
		for _, u := range comm.Members {
			put32(uint32(u))
		}
		put64(uint64(comm.Threshold))
		putF(comm.Benefit)
	}
	put32(uint32(model))
	put64(seed)
	w.Flush()

	var k Key
	h.Sum(k[:0])
	return k
}
