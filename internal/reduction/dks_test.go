package reduction

import (
	"context"
	"testing"
	"testing/quick"

	"imc/internal/maxr"
	"imc/internal/ric"
	"imc/internal/xrand"
)

// triangle-plus-pendant: nodes 0-1-2 form a triangle, node 3 hangs off
// node 0.
func testDkS(t *testing.T) *Instance {
	t.Helper()
	inst, err := FromDkS(4, []DkSEdge{{0, 1}, {1, 2}, {0, 2}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestConstructionShape(t *testing.T) {
	inst := testDkS(t)
	if inst.NumCommunities() != 4 {
		t.Fatalf("r = %d, want 4", inst.NumCommunities())
	}
	if inst.G.NumNodes() != 8 {
		t.Fatalf("IMC nodes = %d, want 2 per edge", inst.G.NumNodes())
	}
	// Node 0 has three incident edges, so three copies in a 3-cycle.
	if len(inst.Copies[0]) != 3 {
		t.Fatalf("copies of node 0: %v", inst.Copies[0])
	}
	if err := inst.Part.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inst.Part.NumCommunities(); i++ {
		c := inst.Part.Community(i)
		if len(c.Members) != 2 || c.Threshold != 2 || c.Benefit != 1 {
			t.Fatalf("community %d malformed: %+v", i, c)
		}
	}
}

func TestConstructionRejectsBadInput(t *testing.T) {
	if _, err := FromDkS(0, nil); err == nil {
		t.Fatal("want n error")
	}
	if _, err := FromDkS(3, []DkSEdge{{1, 1}}); err == nil {
		t.Fatal("want self-loop error")
	}
	if _, err := FromDkS(3, []DkSEdge{{0, 5}}); err == nil {
		t.Fatal("want range error")
	}
	if _, err := FromDkS(3, []DkSEdge{{0, 1}, {1, 0}}); err == nil {
		t.Fatal("want duplicate error")
	}
}

func TestTheorem1EquivalenceOnTriangle(t *testing.T) {
	inst := testDkS(t)
	cases := []struct {
		nodes []int
		want  int
	}{
		{[]int{0, 1}, 1},
		{[]int{0, 1, 2}, 3},
		{[]int{0, 3}, 1},
		{[]int{1, 3}, 0},
		{[]int{0, 1, 2, 3}, 4},
	}
	for _, c := range cases {
		seeds, err := inst.LiftSeeds(c.nodes)
		if err != nil {
			t.Fatal(err)
		}
		if got := inst.Benefit(seeds); got != float64(c.want) {
			t.Errorf("c(lift(%v)) = %g, want %d", c.nodes, got, c.want)
		}
		if got := inst.InducedEdges(c.nodes); got != c.want {
			t.Errorf("e(%v) = %d, want %d", c.nodes, got, c.want)
		}
	}
}

// Property (Theorem 1, forward direction): for random DkS instances and
// random node subsets, c(lift(S)) = e(S) exactly.
func TestQuickLiftPreservesObjective(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		rng := xrand.New(seed)
		n := 6 + rng.Intn(5)
		var edges []DkSEdge
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Bernoulli(0.4) {
					edges = append(edges, DkSEdge{a, b})
				}
			}
		}
		if len(edges) == 0 {
			return true
		}
		inst, err := FromDkS(n, edges)
		if err != nil {
			return false
		}
		k := int(kRaw%uint8(n)) + 1
		nodes := rng.SampleK(n, k)
		seeds, err := inst.LiftSeeds(nodes)
		if err != nil {
			return false
		}
		return inst.Benefit(seeds) == float64(inst.InducedEdges(nodes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property (Theorem 1, backward direction): projecting an arbitrary IMC
// seed set to DkS nodes can only preserve or grow the objective
// (activated copies activate their whole class, so every influenced
// community's endpoints appear in the projection).
func TestQuickProjectDominates(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		rng := xrand.New(seed)
		n := 6 + rng.Intn(4)
		var edges []DkSEdge
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Bernoulli(0.5) {
					edges = append(edges, DkSEdge{a, b})
				}
			}
		}
		if len(edges) == 0 {
			return true
		}
		inst, err := FromDkS(n, edges)
		if err != nil {
			return false
		}
		total := inst.G.NumNodes()
		k := int(kRaw%uint8(total)) + 1
		var seeds []int32
		for _, v := range rng.SampleK(total, k) {
			seeds = append(seeds, int32(v))
		}
		nodes, err := inst.ProjectSeeds(seeds)
		if err != nil {
			return false
		}
		return float64(inst.InducedEdges(nodes)) >= inst.Benefit(seeds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveDkSViaIMC runs a MAXR solver on the reduced instance and
// checks the projected DkS solution matches the IMC benefit — the
// algorithmic content of Theorem 1's approximation transfer.
func TestSolveDkSViaIMC(t *testing.T) {
	inst := testDkS(t)
	pool, err := ric.NewPool(inst.G, inst.Part, ric.PoolOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), 2000); err != nil {
		t.Fatal(err)
	}
	// Budget 3 on the triangle instance: the optimum seeds one copy of
	// each triangle node, influencing the 3 triangle communities.
	res, err := maxr.UBG{}.SolveCtx(context.Background(), pool, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := inst.ProjectSeeds(res.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	got := inst.InducedEdges(nodes)
	if got < 3 {
		t.Fatalf("projected DkS solution %v has %d edges, want the triangle (3)", nodes, got)
	}
}
