// Package graph provides the directed weighted graph substrate for the
// IMC library.
//
// Graphs are stored in compressed sparse row (CSR) form in both
// orientations: the forward adjacency drives Independent Cascade
// simulation, and the reverse adjacency drives RIC / RIS sampling, which
// walk influence paths backwards. Every directed edge carries a global
// edge ID shared by both orientations so that samplers can keep one
// live/blocked state entry per edge (paper Alg. 1's st[] array).
package graph

import (
	"fmt"
	"sort"
	"sync"

	"imc/internal/xrand"
)

// NodeID identifies a node in [0, NumNodes()).
type NodeID = int32

// EdgeID identifies a directed edge in [0, NumEdges()).
type EdgeID = int32

// Edge is one weighted directed edge u->v: u influences v with
// probability Weight.
type Edge struct {
	From   NodeID
	To     NodeID
	Weight float64
}

// Graph is an immutable directed weighted graph. Build one with a
// Builder; the zero value is an empty graph.
type Graph struct {
	n int

	// Forward CSR: out-edges of u are outTo[outOff[u]:outOff[u+1]].
	outOff []int32
	outTo  []NodeID
	outW   []float64
	outEID []EdgeID

	// Reverse CSR: in-edges of v are inFrom[inOff[v]:inOff[v+1]].
	inOff  []int32
	inFrom []NodeID
	inW    []float64
	inEID  []EdgeID

	// inCoin[i] is xrand.Threshold(inW[i]), the integer coin the
	// reverse IC sampler keeps edge i against. For a node whose in-edges
	// xrand.UseCount admits (all one drawing coin, degree and mean live
	// count in range), countAt[v] is the offset in countCDF of its
	// xrand.CountTable, shared by every node with the same (degree,
	// coin); it is −1 for every other node. Every constructor fills all
	// three from inW; none is serialized or digested.
	inCoin   []uint64
	countAt  []int32
	countCDF []uint64

	// digest is WeightDigest's value, hashed once by every constructor
	// (the graph is immutable, so it cannot go stale).
	digest uint64
}

// NumNodes returns the node count n.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the directed edge count m.
func (g *Graph) NumEdges() int { return len(g.outTo) }

// OutDegree returns the number of out-edges of u.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.outOff[u+1] - g.outOff[u])
}

// InDegree returns the number of in-edges of v.
func (g *Graph) InDegree(v NodeID) int {
	return int(g.inOff[v+1] - g.inOff[v])
}

// OutNeighbors returns the targets and weights of u's out-edges. The
// returned slices alias internal storage and must not be modified.
func (g *Graph) OutNeighbors(u NodeID) ([]NodeID, []float64) {
	lo, hi := g.outOff[u], g.outOff[u+1]
	return g.outTo[lo:hi], g.outW[lo:hi]
}

// InNeighbors returns the sources, weights, and global edge IDs of v's
// in-edges. The returned slices alias internal storage and must not be
// modified.
func (g *Graph) InNeighbors(v NodeID) ([]NodeID, []float64, []EdgeID) {
	lo, hi := g.inOff[v], g.inOff[v+1]
	return g.inFrom[lo:hi], g.inW[lo:hi], g.inEID[lo:hi]
}

// InCoins returns the sources and integer coins (xrand.Threshold of
// each weight) of v's in-edges, the inputs of xrand.(*RNG).LiveIn, and
// for a node that xrand.UseCount admits its live-count table, the input
// of xrand.(*RNG).LiveCount (it runs on past the node's own table,
// which LiveCount allows); cdf is nil for every other node. The
// returned slices alias internal storage and must not be modified.
func (g *Graph) InCoins(v NodeID) (froms []NodeID, coins, cdf []uint64) {
	lo, hi := g.inOff[v], g.inOff[v+1]
	if at := g.countAt[v]; at >= 0 {
		cdf = g.countCDF[at:]
	}
	return g.inFrom[lo:hi], g.inCoin[lo:hi], cdf
}

// derive fills what every constructor derives once the weights are
// final: inCoin from inW, the live-count tables of the nodes
// xrand.UseCount admits, and the weight digest.
func (g *Graph) derive() {
	g.digest = g.hashWeights()
	g.inCoin = make([]uint64, len(g.inW))
	for i, w := range g.inW {
		g.inCoin[i] = xrand.Threshold(w)
	}
	g.countAt = make([]int32, g.n)
	g.countCDF = nil
	tables := make(map[countShape]int32)
	for v := range g.countAt {
		g.countAt[v] = -1
		coins := g.inCoin[g.inOff[v]:g.inOff[v+1]]
		if len(coins) == 0 || !xrand.UseCount(len(coins), coins[0]) {
			continue
		}
		uniform := true
		for _, c := range coins[1:] {
			if c != coins[0] {
				uniform = false
				break
			}
		}
		if !uniform {
			continue
		}
		key := countShape{len(coins), coins[0]}
		at, ok := tables[key]
		if !ok {
			at = int32(len(g.countCDF))
			g.countCDF = append(g.countCDF, countTable(key)...)
			tables[key] = at
		}
		g.countAt[v] = at
	}
}

// countShape is what a live-count table depends on: the in-degree and
// the coin every in-edge carries.
type countShape struct {
	d    int
	coin uint64
}

// countTables memoizes xrand.CountTable for the process, one table per
// shape any graph has asked for. A table costs ~20 µs of 128-bit float
// arithmetic, and every graph construction (ApplyWeights included)
// needs one per shape, so building them afresh dominated weighting a
// graph; the shapes a graph family uses are few (one per in-degree
// under weighted cascade). Entries are never mutated once stored.
var countTables sync.Map // countShape → []uint64

// countTable returns the shape's table, building it on first use.
func countTable(key countShape) []uint64 {
	if t, ok := countTables.Load(key); ok {
		return t.([]uint64)
	}
	t, _ := countTables.LoadOrStore(key, xrand.CountTable(key.d, key.coin))
	return t.([]uint64)
}

// OutEdgeIDs returns the global edge IDs of u's out-edges, parallel to
// OutNeighbors.
func (g *Graph) OutEdgeIDs(u NodeID) []EdgeID {
	lo, hi := g.outOff[u], g.outOff[u+1]
	return g.outEID[lo:hi]
}

// Edges materializes all edges in forward-CSR order, indexed by EdgeID.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := NodeID(0); int(u) < g.n; u++ {
		tos, ws := g.OutNeighbors(u)
		for i, v := range tos {
			out = append(out, Edge{From: u, To: v, Weight: ws[i]})
		}
	}
	return out
}

// Weight returns w(u, v), or 0 if the edge does not exist.
func (g *Graph) Weight(u, v NodeID) float64 {
	tos, ws := g.OutNeighbors(u)
	for i, t := range tos {
		if t == v {
			return ws[i]
		}
	}
	return 0
}

// HasEdge reports whether the directed edge u->v exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	tos, _ := g.OutNeighbors(u)
	for _, t := range tos {
		if t == v {
			return true
		}
	}
	return false
}

// Stats summarizes graph shape for reports and Table I.
type Stats struct {
	Nodes        int
	Edges        int
	MaxOutDegree int
	MaxInDegree  int
	AvgDegree    float64
	// MedianOutDegree and P99OutDegree summarize the out-degree
	// distribution: their ratio to AvgDegree reveals tail heaviness.
	MedianOutDegree int
	P99OutDegree    int
}

// ComputeStats scans the graph once and returns its Stats.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Nodes: g.n, Edges: g.NumEdges()}
	degs := make([]int, g.n)
	for u := NodeID(0); int(u) < g.n; u++ {
		d := g.OutDegree(u)
		degs[u] = d
		if d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
		if di := g.InDegree(u); di > s.MaxInDegree {
			s.MaxInDegree = di
		}
	}
	if g.n > 0 {
		s.AvgDegree = float64(g.NumEdges()) / float64(g.n)
		sort.Ints(degs)
		s.MedianOutDegree = degs[g.n/2]
		p99 := (99 * g.n) / 100
		if p99 >= g.n {
			p99 = g.n - 1
		}
		s.P99OutDegree = degs[p99]
	}
	return s
}

// String renders a short description such as "graph(n=747, m=60050)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.n, g.NumEdges())
}
