package ric

import (
	"fmt"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/xrand"
)

// Generator produces RIC samples for one (graph, partition, model)
// triple. It owns per-sample scratch buffers and is therefore NOT safe
// for concurrent use — the pool creates one generator per worker.
//
// One sample's live subgraph lives in flat arrays indexed by BFS slot:
// the node discovered k-th by the collective reverse BFS has slot k, so
// a community's members hold slots 0..|C|-1 (members are distinct, in
// order). Nothing in the scratch is per node except stamp, and nothing
// carries a pointer per entry.
//
//imc:compact
type Generator struct {
	g     *graph.Graph
	part  *community.Partition
	model diffusion.Model
	alias *xrand.Alias

	// epoch versions stamp (bumped once per sample) and mark (bumped
	// once per member pass), so neither is ever cleared.
	epoch int32

	// stamp[v] is node v's slot in the sample whose epoch it carries;
	// any other epoch means v is outside the current region.
	stamp []slotStamp
	// region lists the explored nodes in discovery order: region[s] is
	// the node with slot s.
	region []graph.NodeID
	// live[liveOff[s]:liveOff[s+1]] holds the slots of slot s's live
	// in-neighbours — a CSR of the sampled deterministic subgraph
	// restricted to the region.
	liveOff []int32
	live    []int32
	// root[s] is the member (slot) at the root of slot s's BFS tree,
	// filled by treeHits.
	root []int32
	// Slot-indexed scratch for the member passes and mask propagation.
	mark  []int32
	queue []int32
}

// slotStamp is one node's (epoch, slot) pair.
type slotStamp struct {
	epoch int32
	slot  int32
}

// NewGenerator builds a generator. Community selection follows the
// paper's ρ distribution: Pr[C_i] = b_i / b.
func NewGenerator(g *graph.Graph, part *community.Partition, model diffusion.Model) (*Generator, error) {
	if g.NumNodes() != part.NumNodes() {
		return nil, fmt.Errorf("ric: graph has %d nodes but partition covers %d", g.NumNodes(), part.NumNodes())
	}
	if model == 0 {
		model = diffusion.IC
	}
	weights := make([]float64, part.NumCommunities())
	for i := range weights {
		weights[i] = part.Community(i).Benefit
	}
	return &Generator{
		g:     g,
		part:  part,
		model: model,
		alias: xrand.NewAlias(weights),
		stamp: make([]slotStamp, g.NumNodes()),
	}, nil
}

// Generate draws one RIC sample (paper Alg. 1): select a source
// community, reverse-BFS a deterministic subgraph, and record each
// touching node's member coverage.
//
// Allocation contract: every node the collective BFS explores reaches
// at least one member (the BFS walks reverse live edges starting FROM
// the members), so the sample's cover set is exactly the region. That
// makes the footprint exact — a copy of the region and one flat word
// run holding every slot's mask at the sample's natural width: two
// allocations per sample, both read once by the pool's fold.
//
//imc:hotpath
func (gen *Generator) Generate(rng *xrand.RNG) rawSample {
	commIdx, _ := gen.explore(rng, nil)
	comm := gen.part.Community(commIdx)
	numMembers := len(comm.Members)
	words := maskWords(numMembers)
	coverNodes := make([]graph.NodeID, len(gen.region))
	copy(coverNodes, gen.region)
	coverBits := make([]uint64, len(coverNodes)*words)
	// Member j is slot j and covers itself.
	for j, run := 0, coverBits; j < numMembers; j, run = j+1, run[words:] {
		Mask(run).set(j)
	}
	gen.propagate(coverBits, words)
	return rawSample{
		comm:       int32(commIdx),
		threshold:  int32(comm.Threshold),
		numMembers: int32(numMembers),
		coverNodes: coverNodes,
		coverBits:  coverBits,
	}
}

// propagate turns the members' own bits in masks (words per slot) into
// every slot's full member coverage: slot s reaches member j iff some
// live path leads from s to j's slot, so each slot's mask is OR-ed
// into its live in-neighbours' until nothing grows. One scan in slot
// order carries every mask along the BFS tree, where an in-neighbour is
// discovered after its target; only an edge to an earlier slot, whose
// mask the scan has already passed on, re-pushes that slot, and only
// when its mask grew. A mask grows at most |C| times, so the work is
// bounded by |C|·W times the live edges.
//
//imc:hotpath
func (gen *Generator) propagate(masks []uint64, words int) {
	liveOff, live := gen.liveOff, gen.live
	queue := gen.queue[:0]
	lo, rest := liveOff[0], masks
	for s, hi := range liveOff[1:] {
		src := Mask(rest[:words])
		rest = rest[words:]
		for _, w := range live[lo:hi] {
			if src.OrInto(masks[int(w)*words:int(w+1)*words]) && int(w) < s {
				queue = append(queue, w)
			}
		}
		lo = hi
	}
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		src := Mask(masks[int(s)*words : int(s+1)*words])
		for _, w := range live[liveOff[s]:liveOff[s+1]] {
			if src.OrInto(masks[int(w)*words : int(w+1)*words]) {
				queue = append(queue, w)
			}
		}
	}
	gen.queue = queue
}

// Influenced draws one RIC sample and reports whether the seed set
// (given as an n-length membership slice) influences it, without
// materializing the cover index. This is the hot path of the Estimate
// procedure (paper Alg. 6). When seeds lie in the BFS trees of h
// distinct members the answer is decided, and the per-member passes
// are skipped.
//
//imc:hotpath
func (gen *Generator) Influenced(rng *xrand.RNG, inSeed []bool) bool {
	commIdx, seeded := gen.explore(rng, inSeed)
	if !seeded {
		return false
	}
	comm := gen.part.Community(commIdx)
	h := comm.Threshold
	if gen.treeHits(len(comm.Members), h, inSeed) >= h {
		return true
	}
	return gen.membersReached(len(comm.Members), h, inSeed) >= h
}

// FractionalInfluence draws one RIC sample and returns
// min(|I_g(S)|/h_g, 1) — the fractional statistic whose expectation is
// ν(S)/b (paper eq. 6). Used by the ν-guided stop rule. Like
// Influenced, it skips the per-member passes once the BFS trees decide
// the answer (here: min(|I_g(S)|, h) = h).
//
//imc:hotpath
func (gen *Generator) FractionalInfluence(rng *xrand.RNG, inSeed []bool) float64 {
	commIdx, seeded := gen.explore(rng, inSeed)
	if !seeded {
		return 0
	}
	comm := gen.part.Community(commIdx)
	h := comm.Threshold
	if gen.treeHits(len(comm.Members), h, inSeed) >= h {
		return 1
	}
	return float64(gen.membersReached(len(comm.Members), h, inSeed)) / float64(h)
}

// treeHits counts, up to need, the members whose BFS tree holds a seed.
// The tree is explore's tree of first discoveries, rooted at the
// members: its edges are live edges walked backwards, so a seed in
// member j's tree reaches j, and the count is a lower bound on
// membersReached's. Slot w was discovered by the first slot whose live
// list holds it, because explore dequeues slots in order, so one pass
// over the slot CSR in the same order finds every slot's root, in
// gen.root, without explore recording anything. mark flags the slots
// whose root is known, and among the members those whose tree holds a
// seed.
//
//imc:hotpath
func (gen *Generator) treeHits(numMembers, need int, inSeed []bool) int {
	region, liveOff, live := gen.region, gen.liveOff, gen.live
	mark, root := gen.mark, gen.root
	if len(mark) < len(region) {
		mark = append(mark, make([]int32, len(region)-len(mark))...)
	}
	if len(root) < len(region) {
		root = append(root, make([]int32, len(region)-len(root))...)
	}
	gen.epoch += 2
	known, seededTree := gen.epoch-1, gen.epoch
	hits := 0
	members, memberRoot := mark[:numMembers], root[:numMembers]
	for j, v := range region[:numMembers] {
		memberRoot[j] = int32(j)
		members[j] = known
		if inSeed[v] {
			members[j] = seededTree
			hits++
		}
	}
	roots := root[:len(liveOff)-1]
	lo := liveOff[0]
	for s, hi := range liveOff[1:] {
		if hits >= need {
			break
		}
		r := roots[s]
		for _, w := range live[lo:hi] {
			if m := mark[w]; m != known && m != seededTree {
				mark[w] = known
				root[w] = r
				if inSeed[region[w]] && mark[r] == known {
					mark[r] = seededTree
					hits++
				}
			}
		}
		lo = hi
	}
	gen.mark, gen.root = mark, root
	return hits
}

// membersReached counts the members (slots 0..numMembers-1) that some
// seed reaches over the live subgraph, stopping at need: one backward
// BFS over the slot CSR per member, each ending at its first seed.
//
//imc:hotpath
func (gen *Generator) membersReached(numMembers, need int, inSeed []bool) int {
	region, liveOff, live := gen.region, gen.liveOff, gen.live
	mark := gen.mark
	if len(mark) < len(region) {
		mark = append(mark, make([]int32, len(region)-len(mark))...)
	}
	queue := gen.queue[:0]
	hit := 0
	members := mark[:numMembers]
	for j := range members {
		gen.epoch++
		pass := gen.epoch
		members[j] = pass
		queue = append(queue[:0], int32(j))
		for head := 0; head < len(queue); head++ {
			s := queue[head]
			if inSeed[region[s]] {
				hit++
				break
			}
			for _, w := range live[liveOff[s]:liveOff[s+1]] {
				if mark[w] != pass {
					mark[w] = pass
					queue = append(queue, w)
				}
			}
		}
		if hit >= need {
			break
		}
	}
	gen.mark = mark
	gen.queue = queue
	return hit
}

// explore performs Alg. 1's shared backward BFS: pick the source
// community, then explore every path that could activate any member,
// deciding each node's in-edges exactly once, at its first dequeue. On
// return gen.region, gen.liveOff and gen.live hold the sampled
// deterministic subgraph restricted to the explored region, each live
// in-neighbour rewritten to its slot. seeded reports whether any node
// with inSeed set entered the region (never, for a nil inSeed); when
// none did, no member can be influenced.
//
//imc:hotpath
func (gen *Generator) explore(rng *xrand.RNG, inSeed []bool) (commIdx int, seeded bool) {
	commIdx = gen.alias.Draw(rng)
	members := gen.part.Community(commIdx).Members

	gen.epoch++
	epoch := gen.epoch
	stamp := gen.stamp
	region := gen.region[:0]
	liveOff := gen.liveOff[:0]
	live := gen.live[:0]
	for _, m := range members {
		stamp[m] = slotStamp{epoch, int32(len(region))}
		region = append(region, m)
		if inSeed != nil && inSeed[m] {
			seeded = true
		}
	}
	for s := 0; s < len(region); s++ {
		u := region[s]
		start := len(live)
		liveOff = append(liveOff, int32(start))
		switch gen.model {
		case diffusion.LT:
			if v, ok := gen.pickInEdgeLT(u, rng); ok {
				live = append(live, v)
			}
		default:
			froms, coins, cdf := gen.g.InCoins(u)
			if cdf != nil {
				live = rng.LiveCount(froms, cdf, live)
			} else {
				live = rng.LiveIn(froms, coins, live)
			}
		}
		for k := start; k < len(live); k++ {
			v := live[k]
			st := stamp[v]
			if st.epoch != epoch {
				st = slotStamp{epoch, int32(len(region))}
				stamp[v] = st
				region = append(region, v)
				if inSeed != nil && inSeed[v] {
					seeded = true
				}
			}
			live[k] = st.slot
		}
	}
	gen.region = region
	gen.liveOff = append(liveOff, int32(len(live)))
	gen.live = live
	return commIdx, seeded
}

// pickInEdgeLT picks at most one live in-edge for u and returns its
// source, chosen with probability proportional to edge weight and
// total probability min(Σw, 1) — the standard reverse construction for
// the Linear Threshold model.
//
//imc:hotpath
func (gen *Generator) pickInEdgeLT(u graph.NodeID, rng *xrand.RNG) (graph.NodeID, bool) {
	froms, ws, _ := gen.g.InNeighbors(u)
	ws = ws[:len(froms)] // one shared bounds proof for the parallel scan
	total := 0.0
	for _, w := range ws {
		total += w
	}
	if total > 0 {
		draw := rng.Float64()
		if total > 1 {
			draw *= total
		}
		acc := 0.0
		for i, v := range froms {
			acc += ws[i]
			if draw < acc {
				return v, true
			}
		}
	}
	return 0, false
}
