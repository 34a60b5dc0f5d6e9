package graph

import "imc/internal/xrand"

// WeightScheme assigns influence probabilities to edges after the graph
// topology is fixed. The paper's experiments use the weighted-cascade
// scheme: w(u, v) = 1 / d_in(v).
type WeightScheme int

const (
	// WeightedCascade sets w(u,v) = 1/d_in(v), the scheme used in the
	// paper's evaluation (Section VI-A).
	WeightedCascade WeightScheme = iota + 1
	// ConstantWeight sets every edge to the same probability.
	ConstantWeight
	// Trivalency draws each weight uniformly from {0.1, 0.01, 0.001},
	// a standard alternative in the IM literature.
	Trivalency
)

// ApplyWeights returns a copy of g with edge weights reassigned by the
// scheme. p is the probability for ConstantWeight (ignored otherwise),
// clamped to [0, 1] as Builder.AddEdge clamps; seed drives Trivalency.
func ApplyWeights(g *Graph, scheme WeightScheme, p float64, seed uint64) *Graph {
	out := cloneTopology(g)
	switch scheme {
	case WeightedCascade:
		for v := NodeID(0); int(v) < out.n; v++ {
			d := out.InDegree(v)
			if d == 0 {
				continue
			}
			w := 1.0 / float64(d)
			lo, hi := out.inOff[v], out.inOff[v+1]
			for i := lo; i < hi; i++ {
				out.inW[i] = w
				out.outW[indexOfEdge(out, out.inEID[i])] = w
			}
		}
	case ConstantWeight:
		p = clampWeight(p)
		for i := range out.outW {
			out.outW[i] = p
		}
		for i := range out.inW {
			out.inW[i] = p
		}
	case Trivalency:
		rng := xrand.New(seed)
		vals := [3]float64{0.1, 0.01, 0.001}
		perEdge := make([]float64, out.NumEdges())
		for i := range perEdge {
			perEdge[i] = vals[rng.Intn(3)]
		}
		for i := range out.outW {
			out.outW[i] = perEdge[out.outEID[i]]
		}
		for i := range out.inW {
			out.inW[i] = perEdge[out.inEID[i]]
		}
	}
	out.derive()
	return out
}

// indexOfEdge maps a global edge ID back to its forward-CSR slot. Edge
// IDs are assigned in forward-CSR order, so the mapping is the identity.
func indexOfEdge(_ *Graph, id EdgeID) int { return int(id) }

// cloneTopology deep-copies a graph so weight reassignment never mutates
// the input.
func cloneTopology(g *Graph) *Graph {
	out := &Graph{
		n:      g.n,
		outOff: append([]int32(nil), g.outOff...),
		outTo:  append([]NodeID(nil), g.outTo...),
		outW:   append([]float64(nil), g.outW...),
		outEID: append([]EdgeID(nil), g.outEID...),
		inOff:  append([]int32(nil), g.inOff...),
		inFrom: append([]NodeID(nil), g.inFrom...),
		inW:    append([]float64(nil), g.inW...),
		inEID:  append([]EdgeID(nil), g.inEID...),
	}
	return out
}
