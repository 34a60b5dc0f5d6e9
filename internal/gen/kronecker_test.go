package gen

import (
	"testing"
)

func TestRMATShapeAndSkew(t *testing.T) {
	a, b, c, d := 0.57, 0.19, 0.19, 0.05 // the Graph500 initiator
	g, err := RMAT(12, 40000, a, b, c, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1<<12 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	// Dedup and dropped self-loops shrink the edge count somewhat.
	if m := g.NumEdges(); m < 25000 || m > 40000 {
		t.Fatalf("m = %d, want near 40000", m)
	}
	st := g.ComputeStats()
	if float64(st.MaxOutDegree) < 8*st.AvgDegree {
		t.Fatalf("max degree %d vs avg %.1f: R-MAT should be heavy-tailed", st.MaxOutDegree, st.AvgDegree)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a, b, c, d := 0.57, 0.19, 0.19, 0.05 // the Graph500 initiator
	g1, err := RMAT(8, 2000, a, b, c, d, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RMAT(8, 2000, a, b, c, d, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("RMAT nondeterministic")
	}
	e1, e2 := g1.Edges(), g2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestRMATValidation(t *testing.T) {
	if _, err := RMAT(0, 10, 0.25, 0.25, 0.25, 0.25, 1); err == nil {
		t.Fatal("want levels error")
	}
	if _, err := RMAT(31, 10, 0.25, 0.25, 0.25, 0.25, 1); err == nil {
		t.Fatal("want levels error")
	}
	if _, err := RMAT(4, 0, 0.25, 0.25, 0.25, 0.25, 1); err == nil {
		t.Fatal("want edge-count error")
	}
	if _, err := RMAT(4, 10, -1, 1, 1, 1, 1); err == nil {
		t.Fatal("want initiator error")
	}
	if _, err := RMAT(4, 10, 0, 0, 0, 0, 1); err == nil {
		t.Fatal("want zero-initiator error")
	}
}

func TestRMATUniformInitiatorIsUniform(t *testing.T) {
	// With a=b=c=d the model degenerates to uniform random pairs.
	g, err := RMAT(10, 5000, 0.25, 0.25, 0.25, 0.25, 9)
	if err != nil {
		t.Fatal(err)
	}
	st := g.ComputeStats()
	// Uniform model: max degree stays near the Poisson tail, no
	// massive hub.
	if float64(st.MaxOutDegree) > 8*st.AvgDegree {
		t.Fatalf("uniform initiator produced hub of degree %d (avg %.1f)", st.MaxOutDegree, st.AvgDegree)
	}
	// All endpoints within range.
	for _, e := range g.Edges() {
		if e.From < 0 || e.To < 0 || int(e.From) >= g.NumNodes() || int(e.To) >= g.NumNodes() {
			t.Fatalf("edge %v out of range", e)
		}
	}
}
