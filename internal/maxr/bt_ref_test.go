package maxr

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"imc/internal/community"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/ric"
)

// btRef is the map-based BT solver the CSR one replaced, kept verbatim
// in its algorithm as the reference TestBTMatchesReference compares
// against: per-instance node → entry maps, per-entry mask clones, and
// nodes ordered by sort.Slice on (entry count desc, node asc). Only its
// reads of the pool changed, to the flat index.
type btRef BT

// refRootResult is one root's seeds and score in btRef's scan.
type refRootResult struct {
	seeds []graph.NodeID
	score int
}

// refCover is one (node, mask) pair of the reference's sample-major
// view.
type refCover struct {
	Node graph.NodeID
	Bits ric.Mask
}

// refCovers materializes the sample → covers lists from the CSR view.
func refCovers(pool *ric.Pool) [][]refCover {
	view := pool.SampleCovers()
	out := make([][]refCover, pool.NumSamples())
	for i := range out {
		for k := view.Start[i]; k < view.Start[i+1]; k++ {
			out[i] = append(out[i], refCover{Node: view.Nodes[k], Bits: view.Mask(k)})
		}
	}
	return out
}

// refEntries returns node u's index run as (sample, mask) pairs.
func refEntries(pool *ric.Pool, u graph.NodeID) []refEntryRun {
	w := pool.Words()
	ids, masks := pool.Entries(u)
	out := make([]refEntryRun, len(ids))
	for j, id := range ids {
		out[j] = refEntryRun{Sample: id, Bits: ric.Mask(masks[j*w : (j+1)*w])}
	}
	return out
}

type refEntryRun struct {
	Sample int32
	Bits   ric.Mask
}

func cloneMask(m ric.Mask) ric.Mask { return append(ric.Mask(nil), m...) }

func (b btRef) depth() int { return BT(b).depth() }

func (b btRef) SolveCtx(ctx context.Context, pool *ric.Pool, k int) (Result, error) {
	if err := validate(pool, k); err != nil {
		return Result{}, err
	}
	covers := refCovers(pool)
	roots := BT(b).capRoots(candidates(pool))
	results := make([]refRootResult, len(roots))
	workers := b.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(roots) {
		workers = len(roots)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(roots); i += workers {
				u := roots[i]
				inst := b.rootInstance(pool, covers, u)
				team := b.solveInstance(ctx, inst, k-1, b.depth()-1)
				results[i] = refRootResult{
					seeds: append([]graph.NodeID{u}, team...),
					score: inst.influencedBy(team),
				}
			}
		}(w)
	}
	wg.Wait()
	bestScore := -1
	var bestSeeds []graph.NodeID
	for _, r := range results {
		if r.score > bestScore {
			bestScore = r.score
			bestSeeds = r.seeds
		}
	}
	return finalize(pool, padSeeds(pool, bestSeeds, k)), nil
}

// refEntry records that a node covers members of one instance sample.
type refEntry struct {
	idx  int32
	bits ric.Mask
}

// refInstance is a restricted MAXR instance: a subset of pool samples
// with pre-credited base coverage (from the root chain above it).
type refInstance struct {
	thresholds []int32
	base       []ric.Mask
	nodes      []graph.NodeID // candidate nodes, sorted by entry count desc
	entries    map[graph.NodeID][]refEntry
}

// rootInstance restricts the pool to the samples u touches, crediting
// u's coverage as the base.
func (b btRef) rootInstance(pool *ric.Pool, covers [][]refCover, u graph.NodeID) *refInstance {
	es := refEntries(pool, u)
	inst := &refInstance{
		thresholds: make([]int32, len(es)),
		base:       make([]ric.Mask, len(es)),
		entries:    make(map[graph.NodeID][]refEntry),
	}
	for i, e := range es {
		inst.thresholds[i] = pool.Sample(int(e.Sample)).Threshold
		inst.base[i] = e.Bits
		for _, nc := range covers[e.Sample] {
			if nc.Node == u {
				continue
			}
			inst.entries[nc.Node] = append(inst.entries[nc.Node], refEntry{idx: int32(i), bits: nc.Bits})
		}
	}
	inst.sortNodes()
	return inst
}

// subInstance restricts inst to the samples that node u covers, folding
// u's coverage into the base.
func (inst *refInstance) subInstance(u graph.NodeID) *refInstance {
	es := inst.entries[u]
	sub := &refInstance{
		thresholds: make([]int32, len(es)),
		base:       make([]ric.Mask, len(es)),
		entries:    make(map[graph.NodeID][]refEntry),
	}
	keep := make(map[int32]int32, len(es))
	for i, e := range es {
		sub.thresholds[i] = inst.thresholds[e.idx]
		merged := cloneMask(e.bits)
		inst.base[e.idx].OrInto(merged)
		sub.base[i] = merged
		keep[e.idx] = int32(i)
	}
	for v, ves := range inst.entries {
		if v == u {
			continue
		}
		for _, e := range ves {
			if si, ok := keep[e.idx]; ok {
				sub.entries[v] = append(sub.entries[v], refEntry{idx: si, bits: e.bits})
			}
		}
	}
	sub.sortNodes()
	return sub
}

func (inst *refInstance) sortNodes() {
	inst.nodes = make([]graph.NodeID, 0, len(inst.entries))
	for v := range inst.entries {
		inst.nodes = append(inst.nodes, v)
	}
	sort.Slice(inst.nodes, func(i, j int) bool {
		a, b := inst.nodes[i], inst.nodes[j]
		la, lb := len(inst.entries[a]), len(inst.entries[b])
		if la != lb {
			return la > lb
		}
		return a < b
	})
}

// influencedBy counts instance samples influenced by base ∪ seeds.
func (inst *refInstance) influencedBy(seeds []graph.NodeID) int {
	st := inst.newState()
	for _, v := range seeds {
		st.add(inst, v)
	}
	return st.influenced(inst)
}

// solveInstance picks up to k nodes maximizing influenced instance
// samples. depth ≤ 1 runs the greedy base case (exact (1−1/e) when each
// residual threshold is ≤ 1, i.e. original thresholds ≤ 2); deeper
// levels recurse over roots as §IV-C describes. On cancellation it
// returns early with a partial (possibly nil) team; the caller's
// post-wait ctx check discards the whole result, so the short-circuit
// never leaks into a completed run.
func (b btRef) solveInstance(ctx context.Context, inst *refInstance, k, depth int) []graph.NodeID {
	if k <= 0 || len(inst.nodes) == 0 {
		return nil
	}
	if depth <= 1 {
		return inst.greedy(k)
	}
	roots := BT(b).capRoots(inst.nodes)
	bestScore := -1
	var best []graph.NodeID
	for _, u := range roots {
		if ctx.Err() != nil {
			return best
		}
		sub := inst.subInstance(u)
		team := b.solveInstance(ctx, sub, k-1, depth-1)
		score := sub.influencedBy(team)
		if score > bestScore {
			bestScore = score
			best = append([]graph.NodeID{u}, team...)
		}
	}
	return best
}

// refState tracks running coverage over an instance during greedy.
type refState struct {
	cover []ric.Mask
	count []int32
}

func (inst *refInstance) newState() *refState {
	st := &refState{
		cover: make([]ric.Mask, len(inst.base)),
		count: make([]int32, len(inst.base)),
	}
	for i, m := range inst.base {
		st.cover[i] = m
		st.count[i] = int32(m.OnesCount())
	}
	return st
}

func (st *refState) add(inst *refInstance, v graph.NodeID) {
	for _, e := range inst.entries[v] {
		merged := cloneMask(e.bits)
		st.cover[e.idx].OrInto(merged)
		st.cover[e.idx] = merged
		st.count[e.idx] = int32(merged.OnesCount())
	}
}

func (st *refState) gain(inst *refInstance, v graph.NodeID) int {
	g := 0
	for _, e := range inst.entries[v] {
		h := inst.thresholds[e.idx]
		cur := st.count[e.idx]
		if cur >= h {
			continue
		}
		if cur+int32(e.bits.NewBitsOver(st.cover[e.idx])) >= h {
			g++
		}
	}
	return g
}

func (st *refState) influenced(inst *refInstance) int {
	n := 0
	for i, c := range st.count {
		if c >= inst.thresholds[i] {
			n++
		}
	}
	return n
}

// greedy is the base-case selection: plain greedy on influenced count.
// With residual thresholds ≤ 1 the objective is max coverage, so this
// is the (1−1/e) greedy of Theorem 4.
func (inst *refInstance) greedy(k int) []graph.NodeID {
	st := inst.newState()
	used := make(map[graph.NodeID]struct{}, k)
	seeds := make([]graph.NodeID, 0, k)
	for len(seeds) < k {
		best := graph.NodeID(-1)
		bestGain := 0
		for _, v := range inst.nodes {
			if _, ok := used[v]; ok {
				continue
			}
			// nodes are sorted by entry count and gain ≤ entry count,
			// so once the bound drops below the incumbent the scan can
			// stop (exact prune, mirroring GreedyCHat).
			if len(inst.entries[v]) < bestGain {
				break
			}
			if g := st.gain(inst, v); g > bestGain {
				bestGain = g
				best = v
			}
		}
		if best < 0 {
			break
		}
		st.add(inst, best)
		used[best] = struct{}{}
		seeds = append(seeds, best)
	}
	return seeds
}

// btEquivPools returns the pools the CSR solver is checked on: random
// directed graphs with small communities, and one whose partition has
// a 70-member community, so the pool's masks are
// two words wide (W = 2) and the 10-member communities' masks are
// zero-padded.
func btEquivPools(t *testing.T) map[string]*ric.Pool {
	t.Helper()
	pools := make(map[string]*ric.Pool)
	for _, seed := range []uint64{3, 17} {
		g, err := gen.RandomDirected(30, 110, 0.4, seed)
		if err != nil {
			t.Fatal(err)
		}
		part, err := community.Random(30, 5, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		part.SetBoundedThresholds(3)
		part.SetPopulationBenefits()
		pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: seed + 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.GenerateCtx(context.Background(), 300); err != nil {
			t.Fatal(err)
		}
		pools[fmt.Sprintf("random%d", seed)] = pool
	}
	g, err := gen.RandomDirected(90, 300, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]graph.NodeID{make([]graph.NodeID, 0, 70)}
	for v := 0; v < 70; v++ {
		sets[0] = append(sets[0], graph.NodeID(v))
	}
	for lo := 70; lo < 90; lo += 10 {
		set := make([]graph.NodeID, 0, 10)
		for v := lo; v < lo+10; v++ {
			set = append(set, graph.NodeID(v))
		}
		sets = append(sets, set)
	}
	part, err := community.New(90, sets)
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(3)
	part.SetUniformBenefits(1)
	pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), 80); err != nil {
		t.Fatal(err)
	}
	if pool.Words() != 2 {
		t.Fatalf("wide pool has W = %d, want 2", pool.Words())
	}
	pools["wide"] = pool
	return pools
}

// TestBTMatchesReference checks the CSR solver against the map-based
// reference over Depth × MaxRoots × Workers: both must return the same
// seeds in the same order and the same coverage, since they break
// every tie by the same total order.
func TestBTMatchesReference(t *testing.T) {
	for name, pool := range btEquivPools(t) {
		for _, depth := range []int{2, 3} {
			for _, roots := range []int{0, 3, 64} {
				for _, workers := range []int{1, 4} {
					bt := BT{Depth: depth, MaxRoots: roots, Workers: workers}
					for _, k := range []int{1, 4} {
						got, err := bt.SolveCtx(context.Background(), pool, k)
						if err != nil {
							t.Fatal(err)
						}
						want, err := btRef(bt).SolveCtx(context.Background(), pool, k)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got.Seeds, want.Seeds) || got.Coverage != want.Coverage {
							t.Errorf("%s %+v k=%d: CSR seeds %v coverage %d, reference %v coverage %d",
								name, bt, k, got.Seeds, got.Coverage, want.Seeds, want.Coverage)
						}
					}
				}
			}
		}
	}
}
