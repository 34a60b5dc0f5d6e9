package maxr

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"imc/internal/graph"
	"imc/internal/ric"
)

// BT is the bounded-threshold solver (paper Alg. 4 and its §IV-C
// extension to thresholds ≤ d). For every candidate root u it restricts
// the pool to the samples u touches, credits u's member coverage, and
// solves the residual instance — greedily when one more member suffices
// (d = 2), recursively otherwise. The root whose seed set influences the
// most of its own touched samples wins. Guarantee: (1−1/e)/k^(d−1) for
// the full root scan (MaxRoots 0).
//
// A root scores at most its touch count, and the roots are scanned in
// descending touch-count order, so the scan stops at the first root
// whose touch count cannot beat the best score found so far (an equal
// count loses the tie to the earlier root). Every BT^(d) level prunes
// its positions by entry count the same way. The pruned scan returns
// exactly the seeds of the unpruned one and usually solves a handful
// of roots, not one per candidate.
type BT struct {
	// MaxRoots caps how many candidate roots are examined at every
	// recursion level, taken in descending touch-count order. 0 means
	// all roots — faithful to the paper. The touch-count prune already
	// skips every root that cannot win, so the full scan no longer
	// costs O(|V|) subproblems in practice. A capped scan may skip the
	// root the analysis relies on, so it does not carry the
	// (1−1/e)/k^(d−1) bound; Guarantee still reports that bound.
	MaxRoots int
	// Depth is the threshold bound d ≥ 2; 0 defaults to 2 (Alg. 4).
	Depth int
	// Workers parallelizes the top-level root scan (the roots are
	// independent subproblems). 0 means GOMAXPROCS. The result is
	// deterministic regardless of worker count: ties break toward the
	// earlier root in touch-count order.
	Workers int
}

var _ CtxSolver = BT{}

// Name implements Solver.
func (b BT) Name() string { return "BT" }

// Guarantee implements Solver: (1−1/e)/k^(d−1). The bound holds for the
// full root scan only; with MaxRoots > 0 it is the uncapped solver's
// bound, not a proven one for this configuration.
func (b BT) Guarantee(_ *ric.Pool, k int) float64 {
	d := b.depth()
	return (1 - 1/math.E) / math.Pow(float64(k), float64(d-1))
}

func (b BT) depth() int {
	if b.Depth < 2 {
		return 2
	}
	return b.Depth
}

// Solve implements Solver.
func (b BT) Solve(pool *ric.Pool, k int) (Result, error) {
	return b.SolveCtx(context.Background(), pool, k)
}

// SolveCtx implements CtxSolver: every worker polls ctx once per root
// subproblem (each root is an independent, typically sizable instance),
// and the recursion checks ctx at each level's root scan. A completed
// run is byte-identical to Solve: a root's subproblem does not depend
// on which worker solves it or when, and the prune never skips a root
// that could still win.
//
//imc:longrun
func (b BT) SolveCtx(ctx context.Context, pool *ric.Pool, k int) (Result, error) {
	if err := validate(pool, k); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	scan := newRootScan(b.capRoots(candidates(pool)))
	b.scanRoots(ctx, pool, k, scan)
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return finalize(pool, padSeeds(pool, scan.pick(), k)), nil
}

// rootScan is the shared state of the top-level root scan. Workers
// claim root indices in order from next. best holds the scanKey of the
// best (score, index) solved so far, 0 before the first. Once the
// workers join, winner holds the seeds of the root whose key is best,
// and solved counts the roots they solved.
type rootScan struct {
	roots  []graph.NodeID
	next   atomic.Int64
	best   atomic.Uint64
	winner []graph.NodeID
	solved int
}

func newRootScan(roots []graph.NodeID) *rootScan {
	return &rootScan{roots: roots}
}

// scanKey packs a root's score and index into one word that orders
// roots the way the scan picks them: higher score first, then the
// earlier index. Scores and indices both fit in 32 bits, since a pool
// holds fewer than 2³² samples and a graph fewer than 2³¹ nodes.
func scanKey(score, i int) uint64 {
	return uint64(score+1)<<32 | uint64(^uint32(i))
}

// publish raises best to root i's key if that beats it.
func (s *rootScan) publish(score, i int) {
	key := scanKey(score, i)
	for old := s.best.Load(); key > old; old = s.best.Load() {
		if s.best.CompareAndSwap(old, key) {
			return
		}
	}
}

// pick returns the winning root's seeds: the solved root with the
// highest score, the earliest such root on a tie.
func (s *rootScan) pick() []graph.NodeID { return s.winner }

// workerBest is what one scan worker hands back when it stops: the
// key and seeds of the best root it solved, and how many it solved.
type workerBest struct {
	key    uint64
	seeds  []graph.NodeID
	solved int
}

// scanRoots solves the roots of s that can still win. Root j scores at
// most TouchCount(roots[j]), so it cannot win once scanKey(touch count,
// j) is below best: a higher score is already in, or an equal one at an
// earlier index. Comparing the keys, not the scores alone, keeps a
// later root that was solved first from hiding an earlier root that
// ties it. The roots are sorted by touch count, descending, and best
// only grows, so once one claimed root is bounded every later one is
// too, and the worker stops. Each worker keeps only its own best root;
// the one whose key ends up as best is the winner.
func (b BT) scanRoots(ctx context.Context, pool *ric.Pool, k int, s *rootScan) {
	covers := pool.SampleCovers()
	workers := b.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(s.roots) {
		workers = len(s.roots)
	}
	done := make(chan workerBest, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				sc   *btScratch
				mine workerBest
			)
			defer func() { done <- mine }()
			for {
				i := int(s.next.Add(1) - 1)
				if i >= len(s.roots) || ctx.Err() != nil {
					return
				}
				u := s.roots[i]
				if scanKey(pool.TouchCount(u), i) < s.best.Load() {
					return
				}
				if sc == nil {
					sc = &btScratch{
						words:  pool.Words(),
						local:  make([]int32, pool.Graph().NumNodes()),
						levels: make([]btInstance, b.depth()),
					}
				}
				inst := sc.rootInstance(pool, covers, u)
				team, score := b.solveInstance(ctx, sc, inst, k-1, b.depth()-1)
				if ctx.Err() != nil {
					return
				}
				mine.solved++
				if key := scanKey(score, i); key > mine.key {
					mine.key = key
					mine.seeds = append(mine.seeds[:0], u)
					for _, p := range team {
						mine.seeds = append(mine.seeds, inst.nodes[p])
					}
				}
				s.publish(score, i)
			}
		}()
	}
	wg.Wait()
	close(done)
	best := s.best.Load()
	for r := range done {
		s.solved += r.solved
		if r.key == best {
			s.winner = r.seeds
		}
	}
}

func (b BT) capRoots(roots []graph.NodeID) []graph.NodeID {
	if b.MaxRoots > 0 && len(roots) > b.MaxRoots {
		return roots[:b.MaxRoots]
	}
	return roots
}

// btInstance is a restricted MAXR instance: a subset of pool samples
// with pre-credited base coverage (from the root chain above it), in
// CSR form over candidate positions. Position p is node nodes[p];
// positions run in (entry count desc, node asc) order, and p's entries
// are start[p] ≤ e < start[p+1]: entry e covers instance sample idx[e]
// with the W-word mask at bits[e·W:]. Sample i has threshold
// thresholds[i] and base mask base[i·W:]. A sub-instance also records
// parent[p], p's position in the instance it was restricted from.
//
//imc:compact
type btInstance struct {
	thresholds []int32
	base       []uint64
	nodes      []graph.NodeID
	start      []int
	idx        []int32
	bits       []uint64
	parent     []int32
}

// btScratch is one root-scan worker's reusable storage: the root
// instance and one sub-instance per recursion depth are rebuilt in
// place, so a solve allocates O(workers·depth) instances instead of
// one per subproblem.
type btScratch struct {
	words int
	// local is per-node scratch, all zero between builds: a root build
	// counts each node's entries in it and then maps the node to its
	// position+1; a sub build maps each candidate to its parent
	// position+1.
	local []int32
	keys  []uint64 // rankKeys of the candidates being laid out
	fill  []int
	// keep maps an instance sample to its sub-instance index+1 while a
	// sub-instance is built; all zero between builds.
	keep []int32
	// used marks the greedy's picks by position; all false between
	// greedy runs.
	used []bool
	// cover and count are the running coverage state of greedy and
	// influencedBy: W words and a popcount per instance sample.
	cover []uint64
	count []int32
	root  btInstance
	// levels[d] holds the sub-instance solved at depth d; recursion
	// visits each depth once at a time.
	levels []btInstance
}

// layout sorts the candidates' rankKeys (entry count desc, node asc —
// a total order, so the positions are fully determined) and lays out
// the nodes and entry ranges for them.
func (inst *btInstance) layout(keys []uint64) {
	slices.Sort(keys)
	inst.nodes = inst.nodes[:0]
	inst.start = append(inst.start[:0], 0)
	total := 0
	for _, key := range keys {
		inst.nodes = append(inst.nodes, rankNode(key))
		total += rankCount(key)
		inst.start = append(inst.start, total)
	}
}

// rootInstance restricts the pool to the samples u touches, crediting
// u's coverage as the base. It makes two passes over those samples'
// covers: the first counts each other node's entries, the second fills
// them in at their sorted positions.
func (sc *btScratch) rootInstance(pool *ric.Pool, covers *ric.CoverView, u graph.NodeID) *btInstance {
	w := sc.words
	ids, masks := pool.Entries(u)
	inst := &sc.root
	inst.base = append(inst.base[:0], masks...)
	inst.thresholds = inst.thresholds[:0]
	// The count pass records each new node in keys and its running
	// count in local; the keys get their counts once the pass is done.
	keys := sc.keys[:0]
	for _, id := range ids {
		inst.thresholds = append(inst.thresholds, pool.Sample(int(id)).Threshold)
		for _, v := range covers.Nodes[covers.Start[id]:covers.Start[id+1]] {
			if v == u {
				continue
			}
			if sc.local[v] == 0 {
				keys = append(keys, uint64(uint32(v)))
			}
			sc.local[v]++
		}
	}
	for i, key := range keys {
		v := rankNode(key)
		keys[i] = rankKey(int(sc.local[v]), v)
	}
	inst.layout(keys)
	for p, v := range inst.nodes {
		sc.local[v] = int32(p + 1)
	}
	total := inst.start[len(keys)]
	inst.idx = slices.Grow(inst.idx[:0], total)[:total]
	inst.bits = slices.Grow(inst.bits[:0], total*w)[:total*w]
	sc.fill = append(sc.fill[:0], inst.start[:len(keys)]...)
	for i, id := range ids {
		for k := covers.Start[id]; k < covers.Start[id+1]; k++ {
			v := covers.Nodes[k]
			if v == u {
				continue
			}
			p := sc.local[v] - 1
			e := sc.fill[p]
			sc.fill[p]++
			inst.idx[e] = int32(i)
			m := covers.Mask(k)
			dst := inst.bits[e*w : e*w+len(m)]
			for j, word := range m {
				dst[j] = word
			}
		}
	}
	for _, v := range inst.nodes {
		sc.local[v] = 0
	}
	sc.keys = keys
	return inst
}

// subInstance rebuilds sub as inst restricted to the samples that the
// node at position pu covers, folding pu's coverage into the base. A
// sub-instance node's entries are the kept entries of its parent
// position, so the fill pass copies each candidate's run in key order.
func (sc *btScratch) subInstance(inst *btInstance, pu int, sub *btInstance) {
	w := sc.words
	lo, hi := inst.start[pu], inst.start[pu+1]
	if len(sc.keep) < len(inst.thresholds) {
		sc.keep = make([]int32, len(inst.thresholds))
	}
	sub.thresholds = sub.thresholds[:0]
	sub.base = sub.base[:0]
	for e := lo; e < hi; e++ {
		i := int(inst.idx[e])
		sc.keep[i] = int32(e - lo + 1)
		sub.thresholds = append(sub.thresholds, inst.thresholds[i])
		sub.base = append(sub.base, inst.bits[e*w:(e+1)*w]...)
		ric.Mask(inst.base[i*w : (i+1)*w]).OrInto(sub.base[(e-lo)*w:])
	}
	keys := sc.keys[:0]
	for p, v := range inst.nodes {
		if p == pu {
			continue
		}
		c := 0
		for _, i := range inst.idx[inst.start[p]:inst.start[p+1]] {
			if sc.keep[i] != 0 {
				c++
			}
		}
		if c > 0 {
			keys = append(keys, rankKey(c, v))
			sc.local[v] = int32(p + 1)
		}
	}
	sub.layout(keys)
	sub.parent = sub.parent[:0]
	sub.idx = sub.idx[:0]
	sub.bits = sub.bits[:0]
	for _, v := range sub.nodes {
		p := int(sc.local[v] - 1)
		sc.local[v] = 0
		sub.parent = append(sub.parent, int32(p))
		for e := inst.start[p]; e < inst.start[p+1]; e++ {
			if s := sc.keep[inst.idx[e]]; s != 0 {
				sub.idx = append(sub.idx, s-1)
				sub.bits = append(sub.bits, inst.bits[e*w:(e+1)*w]...)
			}
		}
	}
	for _, i := range inst.idx[lo:hi] {
		sc.keep[i] = 0
	}
	sc.keys = keys
}

// solveInstance picks up to k positions of inst maximizing influenced
// instance samples, and returns them with the number of instance
// samples base ∪ picks influences. depth ≤ 1 runs the greedy base case
// (exact (1−1/e) when each residual threshold is ≤ 1, i.e. original
// thresholds ≤ 2); deeper levels recurse over roots as §IV-C
// describes, skipping every position that cannot beat the best team
// found so far: a sub-solve influences at most its position's entry
// count of samples, and positions run in entry-count order. On
// cancellation it returns early with a partial (possibly nil) team;
// the scan drops it and SolveCtx returns ctx's error, so the
// short-circuit never leaks into a completed run.
func (b BT) solveInstance(ctx context.Context, sc *btScratch, inst *btInstance, k, depth int) ([]int32, int) {
	if k <= 0 || len(inst.nodes) == 0 {
		return nil, sc.influencedBy(inst, nil)
	}
	if depth <= 1 {
		return sc.greedy(inst, k)
	}
	roots := len(inst.nodes)
	if b.MaxRoots > 0 {
		roots = min(roots, b.MaxRoots)
	}
	sub := &sc.levels[depth-1]
	bestScore := -1
	var best []int32
	for pu := 0; pu < roots; pu++ {
		// An equal count cannot win either: ties go to the earlier pu.
		if inst.start[pu+1]-inst.start[pu] <= bestScore {
			break
		}
		if ctx.Err() != nil {
			return best, bestScore
		}
		sc.subInstance(inst, pu, sub)
		team, score := b.solveInstance(ctx, sc, sub, k-1, depth-1)
		if score > bestScore {
			bestScore = score
			best = append(best[:0], int32(pu))
			for _, q := range team {
				best = append(best, sub.parent[q])
			}
		}
	}
	return best, sc.influencedBy(inst, best)
}

// resetState loads inst's base coverage into the running state.
func (sc *btScratch) resetState(inst *btInstance) {
	w := sc.words
	sc.cover = append(sc.cover[:0], inst.base...)
	sc.count = slices.Grow(sc.count[:0], len(inst.thresholds))[:len(inst.thresholds)]
	for i := range sc.count {
		sc.count[i] = int32(ric.Mask(sc.cover[i*w : (i+1)*w]).OnesCount())
	}
}

// add ORs position p's masks into the running state.
func (sc *btScratch) add(inst *btInstance, p int) {
	w := sc.words
	lo, hi := inst.start[p], inst.start[p+1]
	bits := inst.bits[lo*w : hi*w]
	for _, i := range inst.idx[lo:hi] {
		m := ric.Mask(bits[:w:w])
		bits = bits[w:]
		c := ric.Mask(sc.cover[int(i)*w : (int(i)+1)*w])
		m.OrInto(c)
		sc.count[i] = int32(c.OnesCount())
	}
}

// gain counts the instance samples position p would newly influence.
func (sc *btScratch) gain(inst *btInstance, p int) int {
	w := sc.words
	lo, hi := inst.start[p], inst.start[p+1]
	bits := inst.bits[lo*w : hi*w]
	g := 0
	for _, i := range inst.idx[lo:hi] {
		m := ric.Mask(bits[:w:w])
		bits = bits[w:]
		h := inst.thresholds[i]
		cur := sc.count[i]
		if cur >= h {
			continue
		}
		if cur+int32(m.NewBitsOver(sc.cover[int(i)*w:])) >= h {
			g++
		}
	}
	return g
}

// influenced counts the instance samples the running state influences.
func (sc *btScratch) influenced(inst *btInstance) int {
	n := 0
	for i, c := range sc.count {
		if c >= inst.thresholds[i] {
			n++
		}
	}
	return n
}

// influencedBy counts instance samples influenced by base ∪ team.
func (sc *btScratch) influencedBy(inst *btInstance, team []int32) int {
	sc.resetState(inst)
	for _, p := range team {
		sc.add(inst, int(p))
	}
	return sc.influenced(inst)
}

// greedy is the base-case selection: plain greedy on influenced count.
// With residual thresholds ≤ 1 the objective is max coverage, so this
// is the (1−1/e) greedy of Theorem 4. It returns the picked positions
// and the influenced count they reach.
func (sc *btScratch) greedy(inst *btInstance, k int) ([]int32, int) {
	sc.resetState(inst)
	if len(sc.used) < len(inst.nodes) {
		sc.used = make([]bool, len(inst.nodes))
	}
	used := sc.used[:len(inst.nodes)]
	team := make([]int32, 0, k)
	for len(team) < k {
		best := -1
		bestGain := 0
		for p := range used {
			if used[p] {
				continue
			}
			// positions are sorted by entry count and gain ≤ entry
			// count, so once the bound drops below the incumbent the
			// scan can stop (exact prune, mirroring GreedyCHat).
			if inst.start[p+1]-inst.start[p] < bestGain {
				break
			}
			if g := sc.gain(inst, p); g > bestGain {
				bestGain = g
				best = p
			}
		}
		if best < 0 {
			break
		}
		sc.add(inst, best)
		used[best] = true
		team = append(team, int32(best))
	}
	for _, p := range team {
		used[p] = false
	}
	return team, sc.influenced(inst)
}
