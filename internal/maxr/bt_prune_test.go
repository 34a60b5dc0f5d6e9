package maxr

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"imc/internal/community"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/ric"
)

// solvedRoots runs b's top-level root scan on pool and returns the
// scan and the number of roots it solved.
func solvedRoots(t *testing.T, b BT, pool *ric.Pool, k int) (*rootScan, int) {
	t.Helper()
	scan := newRootScan(b.capRoots(candidates(pool)))
	b.scanRoots(context.Background(), pool, k, scan)
	return scan, scan.solved
}

// TestBTTieGoesToEarlierRoot: on pairPool, nodes 0 and 1 each touch
// every sample of community A and together influence all of them, so
// roots 0 and 1 tie on touch count and on score. The earlier root must
// win at every worker count, also when the later root's score is
// already in the shared best before root 0 is looked at.
func TestBTTieGoesToEarlierRoot(t *testing.T) {
	pool := pairPool(t, 200)
	roots := candidates(pool)
	if roots[0] != 0 || roots[1] != 1 || pool.TouchCount(0) != pool.TouchCount(1) {
		t.Fatalf("pool does not tie roots 0 and 1: roots %v, touch counts %d and %d",
			roots, pool.TouchCount(0), pool.TouchCount(1))
	}
	want, err := btRef(BT{Workers: 1}).SolveCtx(context.Background(), pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(want.Seeds, []graph.NodeID{0, 1}) {
		t.Fatalf("reference seeds %v, want root 0's team [0 1]", want.Seeds)
	}
	for _, workers := range []int{1, 2, 4} {
		bt := BT{Workers: workers}
		for rep := 0; rep < 20; rep++ {
			got, err := bt.SolveCtx(context.Background(), pool, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Seeds, want.Seeds) || got.Coverage != want.Coverage {
				t.Fatalf("workers=%d rep %d: seeds %v coverage %d, reference %v coverage %d",
					workers, rep, got.Seeds, got.Coverage, want.Seeds, want.Coverage)
			}
		}
		// Root 1 solved first: its score is in best before any worker
		// claims root 0, which must still be solved and win.
		scan := newRootScan(roots)
		scan.publish(pool.TouchCount(1), 1)
		bt.scanRoots(context.Background(), pool, 2, scan)
		if i := ^uint32(scan.best.Load()); i != 0 {
			t.Fatalf("workers=%d: root %d holds the best, so root 0 was skipped behind root 1's equal score", workers, i)
		}
		if got := scan.pick(); !slices.Equal(got, want.Seeds) {
			t.Fatalf("workers=%d: picked %v, want root 0's team %v", workers, got, want.Seeds)
		}
	}
}

// dblpShapedPool builds solve-select's instance shape without expt:
// dblp@0.02 with weighted-cascade weights, Louvain communities split to
// at most 8 members, threshold 2 and population benefits, and 2,666
// samples, the size of solve-select's second stop-and-stare round.
func dblpShapedPool(t *testing.T) *ric.Pool {
	t.Helper()
	g, err := gen.BuildDataset("dblp", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	g = graph.ApplyWeights(g, graph.WeightedCascade, 0, 1)
	part, err := community.Louvain(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if part, err = part.SplitBySize(8, 3); err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: 42 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), 2666); err != nil {
		t.Fatal(err)
	}
	return pool
}

// TestBTScanPrunesRoots: the pruned scan solves fewer roots than it
// scans and still returns the reference's seeds.
func TestBTScanPrunesRoots(t *testing.T) {
	pools := btEquivPools(t)
	pools["dblp"] = dblpShapedPool(t)
	for name, pool := range pools {
		for _, depth := range []int{2, 3} {
			if name == "dblp" && depth == 3 {
				continue // thresholds are 2; depth 2 is what solve-select runs
			}
			const k = 4
			want, err := btRef(BT{Depth: depth}).SolveCtx(context.Background(), pool, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				bt := BT{Depth: depth, Workers: workers}
				scan, solved := solvedRoots(t, bt, pool, k)
				if solved == 0 || solved >= len(scan.roots) {
					t.Errorf("%s %+v: solved %d of %d roots", name, bt, solved, len(scan.roots))
				}
				got, err := bt.SolveCtx(context.Background(), pool, k)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Seeds, want.Seeds) || got.Coverage != want.Coverage {
					t.Errorf("%s %+v: seeds %v coverage %d, reference %v coverage %d",
						name, bt, got.Seeds, got.Coverage, want.Seeds, want.Coverage)
				}
				if !slices.Equal(finalize(pool, padSeeds(pool, scan.pick(), k)).Seeds, got.Seeds) {
					t.Errorf("%s %+v: the scan's pick differs from Solve's seeds", name, bt)
				}
			}
		}
	}
}

// TestBTLevelPrune: on a BT^(3) root instance whose level loop stops
// early, the pruned solve returns the team and score of the loop run
// over every position.
func TestBTLevelPrune(t *testing.T) {
	bt := BT{Depth: 3}
	const k = 4
	fired := 0
	for name, pool := range btEquivPools(t) {
		covers := pool.SampleCovers()
		sc := &btScratch{
			words:  pool.Words(),
			local:  make([]int32, pool.Graph().NumNodes()),
			levels: make([]btInstance, bt.depth()),
		}
		for _, u := range candidates(pool) {
			inst := sc.rootInstance(pool, covers, u)
			// The unpruned level loop of solveInstance at depth 2.
			sub := &sc.levels[1]
			bestScore, stop := -1, -1
			var best []int32
			for pu := range inst.nodes {
				if stop < 0 && inst.start[pu+1]-inst.start[pu] <= bestScore {
					stop = pu
				}
				sc.subInstance(inst, pu, sub)
				team, score := sc.greedy(sub, k-2)
				if score > bestScore {
					if stop >= 0 {
						t.Fatalf("%s root %d: position %d scores %d past the prune at %d", name, u, pu, score, stop)
					}
					bestScore = score
					best = append(best[:0], int32(pu))
					for _, q := range team {
						best = append(best, sub.parent[q])
					}
				}
			}
			if stop < 0 {
				continue
			}
			fired++
			wantScore := sc.influencedBy(inst, best)
			team, score := bt.solveInstance(context.Background(), sc, inst, k-1, bt.depth()-1)
			if !slices.Equal(team, best) || score != wantScore {
				t.Fatalf("%s root %d: pruned team %v score %d, unpruned %v score %d", name, u, team, score, best, wantScore)
			}
		}
	}
	if fired == 0 {
		t.Fatal("the level prune never fired")
	}
}

// TestBTCancelledMidScan: a ctx cancelled while the root scan runs
// makes BT and MB return ctx's error and no result, and no scan worker
// outlives the call.
func TestBTCancelledMidScan(t *testing.T) {
	pool := workersPool(t, 2)
	bt := BT{Depth: 3, Workers: 2}
	cases := []struct {
		name   string
		solver Solver
		before Solver // what runs before the scan
	}{
		{"BT", bt, nil},
		{"MB", MB{BT: bt}, MAF{}},
	}
	runtime.GC()
	goroutines := runtime.NumGoroutine()
	for _, c := range cases {
		polls := func(s Solver) int64 {
			ctx := &pollLimitCtx{Context: context.Background(), limit: math.MaxInt64}
			if _, err := s.SolveCtx(ctx, pool, 6); err != nil {
				t.Fatal(err)
			}
			return ctx.polls.Load()
		}
		var skip int64
		if c.before != nil {
			skip = polls(c.before)
		}
		total := polls(c.solver)
		for _, limit := range []int64{skip + 2, skip + 3, (skip + total) / 2} {
			ctx := &pollLimitCtx{Context: context.Background(), limit: limit}
			res, err := c.solver.SolveCtx(ctx, pool, 6)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s limit=%d of %d polls: err = %v, want context.Canceled", c.name, limit, total, err)
			}
			if res.Seeds != nil || res.Coverage != 0 {
				t.Fatalf("%s limit=%d: cancelled solve returned %+v", c.name, limit, res)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > goroutines {
		t.Fatalf("goroutines grew %d -> %d: a scan worker outlived SolveCtx", goroutines, after)
	}
}
