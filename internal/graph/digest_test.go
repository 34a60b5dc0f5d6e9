package graph

import (
	"bytes"
	"math"
	"testing"
)

func mustFromEdges(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWeightDigestStable: the digest is a pure function of the built
// graph — identical across calls, across separate builds of the same
// edges, and across edge insertion order (Build canonicalizes the CSR
// by sorting on (from, to)).
func TestWeightDigestStable(t *testing.T) {
	edges := []Edge{
		{From: 0, To: 1, Weight: 0.5},
		{From: 0, To: 2, Weight: 0.25},
		{From: 2, To: 3, Weight: 1},
		{From: 3, To: 0, Weight: 0.125},
	}
	g := mustFromEdges(t, 4, edges)
	if g.WeightDigest() != g.WeightDigest() {
		t.Fatal("digest differs across calls on one graph")
	}

	again := mustFromEdges(t, 4, edges)
	if g.WeightDigest() != again.WeightDigest() {
		t.Error("digest differs across builds of identical edges")
	}

	reversed := make([]Edge, 0, len(edges))
	for i := len(edges) - 1; i >= 0; i-- {
		reversed = append(reversed, edges[i])
	}
	shuffled := mustFromEdges(t, 4, reversed)
	if g.WeightDigest() != shuffled.WeightDigest() {
		t.Error("digest depends on edge insertion order; Build should have canonicalized")
	}
}

// TestWeightDigestWeightPermutation: permuting weights across a fixed
// topology must change the digest — the exact mix-up pool snapshots
// use it to refuse (same graph file, different weight scheme).
func TestWeightDigestWeightPermutation(t *testing.T) {
	a := mustFromEdges(t, 3, []Edge{
		{From: 0, To: 1, Weight: 0.3},
		{From: 0, To: 2, Weight: 0.7},
	})
	b := mustFromEdges(t, 3, []Edge{
		{From: 0, To: 1, Weight: 0.7},
		{From: 0, To: 2, Weight: 0.3},
	})
	if a.WeightDigest() == b.WeightDigest() {
		t.Error("digest blind to weight permutation across edges")
	}
}

// TestWeightDigestCSRReorder: two graphs whose concatenated target and
// weight arrays are identical but whose row boundaries differ (the
// same edges hanging off different sources) must digest differently —
// the offsets are part of the digest, not just the flat edge stream.
func TestWeightDigestCSRReorder(t *testing.T) {
	a := mustFromEdges(t, 3, []Edge{
		{From: 0, To: 1, Weight: 0.5},
		{From: 0, To: 2, Weight: 0.5},
	})
	b := mustFromEdges(t, 3, []Edge{
		{From: 0, To: 1, Weight: 0.5},
		{From: 1, To: 2, Weight: 0.5},
	})
	if a.WeightDigest() == b.WeightDigest() {
		t.Error("digest blind to CSR row boundaries: outTo/outW agree, outOff differs")
	}
}

// TestWeightDigestShape: node count and edge presence are load-bearing.
func TestWeightDigestShape(t *testing.T) {
	edges := []Edge{{From: 0, To: 1, Weight: 0.5}}
	small := mustFromEdges(t, 2, edges)
	padded := mustFromEdges(t, 3, edges)
	if small.WeightDigest() == padded.WeightDigest() {
		t.Error("digest blind to isolated extra node")
	}
	more := mustFromEdges(t, 2, append([]Edge{{From: 1, To: 0, Weight: 0.5}}, edges...))
	if small.WeightDigest() == more.WeightDigest() {
		t.Error("digest blind to an added edge")
	}
}

// TestWeightDigestBitIdentical: equality is on weight bits, not on
// approximate value — one ULP apart is a different instance.
func TestWeightDigestBitIdentical(t *testing.T) {
	a := mustFromEdges(t, 2, []Edge{{From: 0, To: 1, Weight: math.Nextafter(0.3, 1)}})
	b := mustFromEdges(t, 2, []Edge{{From: 0, To: 1, Weight: 0.3}})
	if a.WeightDigest() == b.WeightDigest() {
		t.Error("digest should separate weights that differ only in low bits")
	}
}

// TestWeightDigestStoredMatchesRehash: every constructor stores the
// digest once; the stored value must equal a fresh hash of the graph
// it built, including ApplyWeights' reweighted copies (which must not
// inherit the source graph's digest).
func TestWeightDigestStoredMatchesRehash(t *testing.T) {
	edges := []Edge{
		{From: 0, To: 1, Weight: 0.5},
		{From: 0, To: 2, Weight: 0.25},
		{From: 2, To: 3, Weight: 1},
		{From: 3, To: 0, Weight: 0.125},
		{From: 1, To: 3, Weight: 0.75},
	}
	built := mustFromEdges(t, 4, edges)

	b := NewBuilder(4)
	for _, e := range edges {
		b.AddEdge(e.From, e.To, e.Weight)
	}
	fromBuilder, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	var text bytes.Buffer
	if err := WriteEdgeList(&text, built); err != nil {
		t.Fatal(err)
	}
	fromText, err := ReadEdgeList(&text, true)
	if err != nil {
		t.Fatal(err)
	}

	var bin bytes.Buffer
	if err := WriteBinary(&bin, built); err != nil {
		t.Fatal(err)
	}
	fromBinary, err := ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}

	graphs := map[string]*Graph{
		"FromEdges":    built,
		"Build":        fromBuilder,
		"ReadEdgeList": fromText,
		"ReadBinary":   fromBinary,
	}
	for name, scheme := range map[string]WeightScheme{
		"WeightedCascade": WeightedCascade,
		"ConstantWeight":  ConstantWeight,
		"Trivalency":      Trivalency,
	} {
		graphs["ApplyWeights/"+name] = ApplyWeights(built, scheme, 0.1, 7)
	}
	for name, g := range graphs {
		if got, want := g.WeightDigest(), g.hashWeights(); got != want {
			t.Errorf("%s: stored digest %#x, fresh hash %#x", name, got, want)
		}
	}
	if built.WeightDigest() == graphs["ApplyWeights/ConstantWeight"].WeightDigest() {
		t.Error("reweighted copy reports its source graph's digest")
	}
}
