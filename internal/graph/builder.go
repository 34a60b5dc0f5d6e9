package graph

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNoNodes is returned when building a graph with a non-positive node
// count.
var ErrNoNodes = errors.New("graph: node count must be positive")

// Builder accumulates edges and produces an immutable Graph. Duplicate
// (from, to) pairs are merged keeping the last weight; self-loops are
// dropped (they never affect diffusion).
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NumNodes returns the node count the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// AddEdge records the directed edge u->v with the given weight. Invalid
// endpoints and self-loops are ignored; weights are clamped to [0, 1],
// and NaN is clamped to 0.
func (b *Builder) AddEdge(u, v NodeID, w float64) {
	if u == v || u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		return
	}
	b.edges = append(b.edges, Edge{From: u, To: v, Weight: clampWeight(w)})
}

// clampWeight maps w into [0, 1], sending NaN to 0, so every weight a
// Graph holds survives WriteBinary/ReadBinary.
func clampWeight(w float64) float64 {
	switch {
	case w > 1:
		return 1
	case w >= 0:
		return w
	}
	return 0 // negative or NaN
}

// AddUndirected records both u->v and v->u with the given weight.
func (b *Builder) AddUndirected(u, v NodeID, w float64) {
	b.AddEdge(u, v, w)
	b.AddEdge(v, u, w)
}

// Build finalizes the graph. The builder can be reused afterwards but
// shares no state with the returned graph.
func (b *Builder) Build() (*Graph, error) {
	if b.n <= 0 {
		return nil, ErrNoNodes
	}
	if b.n >= 1<<31 {
		return nil, fmt.Errorf("graph: node count %d exceeds NodeID range", b.n)
	}
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	// Deduplicate, keeping the last-added weight for each pair. Because
	// sort.Slice is not stable across equal keys we re-scan b.edges order:
	// simplest correct rule here is "last write wins", so overwrite during
	// the dedup pass using a map from pair to final weight.
	if len(edges) > 1 {
		dedup := edges[:0]
		for _, e := range edges {
			if len(dedup) > 0 {
				last := &dedup[len(dedup)-1]
				if last.From == e.From && last.To == e.To {
					last.Weight = e.Weight
					continue
				}
			}
			dedup = append(dedup, e)
		}
		edges = dedup
	}
	m := len(edges)

	g := &Graph{
		n:      b.n,
		outOff: make([]int32, b.n+1),
		outTo:  make([]NodeID, m),
		outW:   make([]float64, m),
		outEID: make([]EdgeID, m),
		inOff:  make([]int32, b.n+1),
		inFrom: make([]NodeID, m),
		inW:    make([]float64, m),
		inEID:  make([]EdgeID, m),
	}

	// Forward CSR directly from the sorted order; edge IDs follow it.
	for _, e := range edges {
		g.outOff[e.From+1]++
		g.inOff[e.To+1]++
	}
	for i := 0; i < b.n; i++ {
		g.outOff[i+1] += g.outOff[i]
		g.inOff[i+1] += g.inOff[i]
	}
	for i, e := range edges {
		g.outTo[i] = e.To
		g.outW[i] = e.Weight
		g.outEID[i] = EdgeID(i)
	}
	// Reverse CSR via a counting pass.
	cursor := make([]int32, b.n)
	copy(cursor, g.inOff[:b.n])
	for i, e := range edges {
		pos := cursor[e.To]
		cursor[e.To]++
		g.inFrom[pos] = e.From
		g.inW[pos] = e.Weight
		g.inEID[pos] = EdgeID(i)
	}
	g.fillCoins()
	return g, nil
}

// FromEdges is a convenience constructor building a graph with n nodes
// from an edge slice.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.From, e.To, e.Weight)
	}
	return b.Build()
}
