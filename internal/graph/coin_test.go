package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"imc/internal/xrand"
)

// TestNaNWeightRejectedOrClamped: a NaN weight never reaches a Graph.
// The edge-list reader rejects it with a line-numbered error, the
// builder clamps it to 0, and what the builder accepts survives edge
// list → binary → edge list.
func TestNaNWeightRejectedOrClamped(t *testing.T) {
	for _, in := range []string{"0 1 nan\n", "0 1 0.5\n2 1 NaN\n", "0 1 -nan\n"} {
		_, err := ReadEdgeList(strings.NewReader(in), true)
		if err == nil || !strings.Contains(err.Error(), "bad weight") || !strings.Contains(err.Error(), "line ") {
			t.Errorf("ReadEdgeList(%q) = %v, want a line-numbered bad-weight error", in, err)
		}
	}

	b := NewBuilder(3)
	b.AddEdge(0, 1, math.NaN())
	b.AddEdge(1, 2, math.Inf(1))
	b.AddEdge(2, 0, math.Inf(-1))
	g := mustBuild(t, b)
	for _, e := range []struct {
		u, v NodeID
		w    float64
	}{{0, 1, 0}, {1, 2, 1}, {2, 0, 0}} {
		if got := g.Weight(e.u, e.v); got != e.w {
			t.Errorf("AddEdge clamped w(%d,%d) to %g, want %g", e.u, e.v, got, e.w)
		}
	}

	var list bytes.Buffer
	if err := WriteEdgeList(&list, g); err != nil {
		t.Fatal(err)
	}
	fromList, err := ReadEdgeList(&list, true)
	if err != nil {
		t.Fatalf("re-read own edge list: %v", err)
	}
	var bin bytes.Buffer
	if err := WriteBinary(&bin, fromList); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(&bin)
	if err != nil {
		t.Fatalf("read own binary: %v", err)
	}
	var back bytes.Buffer
	if err := WriteEdgeList(&back, fromBin); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := WriteEdgeList(&first, g); err != nil {
		t.Fatal(err)
	}
	if back.String() != first.String() {
		t.Fatalf("edge list → binary → edge list changed the graph:\n%s\nvs\n%s", first.String(), back.String())
	}
}

// TestConstantWeightClamps: ConstantWeight clamps p the way AddEdge
// does, so no scheme can store a weight ReadBinary would reject.
func TestConstantWeightClamps(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 0.5)
	g := mustBuild(t, b)
	for _, c := range []struct{ p, want float64 }{{math.NaN(), 0}, {-1, 0}, {2, 1}, {0.37, 0.37}} {
		if got := ApplyWeights(g, ConstantWeight, c.p, 0).Weight(0, 1); got != c.want {
			t.Errorf("ConstantWeight p=%g stored %g, want %g", c.p, got, c.want)
		}
	}
}

// checkCoins fails unless every in-edge's coin is the Threshold of its
// weight, in InNeighbors order.
func checkCoins(t *testing.T, what string, g *Graph) {
	t.Helper()
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		froms, ws, _ := g.InNeighbors(v)
		cf, coins := g.InCoins(v)
		if len(cf) != len(froms) || len(coins) != len(ws) {
			t.Fatalf("%s: node %d has %d/%d coins for %d in-edges", what, v, len(cf), len(coins), len(froms))
		}
		for i := range froms {
			if cf[i] != froms[i] || coins[i] != xrand.Threshold(ws[i]) {
				t.Fatalf("%s: node %d in-edge %d: coin %d for weight %g, want %d",
					what, v, i, coins[i], ws[i], xrand.Threshold(ws[i]))
			}
		}
	}
}

// TestInCoinsEveryConstructor: Build, ReadBinary and ApplyWeights each
// leave the coin table in step with the reverse weights.
func TestInCoinsEveryConstructor(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(2, 1, 0)
	b.AddEdge(3, 1, 1)
	b.AddEdge(1, 4, 1.0/3)
	b.AddEdge(5, 4, 0.001)
	b.AddEdge(4, 0, 0.9)
	g := mustBuild(t, b)
	checkCoins(t, "Build", g)

	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkCoins(t, "ReadBinary", back)

	for _, s := range []WeightScheme{WeightedCascade, ConstantWeight, Trivalency} {
		checkCoins(t, "ApplyWeights", ApplyWeights(g, s, 0.37, 5))
	}
}
