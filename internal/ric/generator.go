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
	// kept by explore when it runs against a seed set.
	root []int32
	// Slot-indexed scratch for the member passes and mask propagation.
	mark  []int32
	queue []int32

	// Generate carves each sample's cover nodes and mask words out of
	// these arenas, so a sample costs no allocation of its own.
	nodes arena[graph.NodeID]
	bits  arena[uint64]
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
// run holding every slot's mask at the sample's natural width, both
// read once by the pool's fold. Both are carved from the generator's
// arenas, whose chunks are never reused, so the words start zeroed and
// a sample allocates nothing while the arenas have room.
//
//imc:hotpath
func (gen *Generator) Generate(rng *xrand.RNG) rawSample {
	commIdx, _, _ := gen.explore(rng, nil)
	comm := gen.part.Community(commIdx)
	numMembers := len(comm.Members)
	words := maskWords(numMembers)
	coverNodes := append(gen.nodes.reserve(len(gen.region)), gen.region...)
	n := len(coverNodes) * words
	coverBits := gen.bits.reserve(n)[:n]
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
// procedure (paper Alg. 6). The draw stops as soon as seeds lie in the
// BFS trees of h distinct members, which decides it; only a draw that
// explore leaves undecided with a seed in its region runs the
// per-member passes. A stopped draw leaves rng where the decision fell,
// short of where the full sample would have left it.
//
//imc:hotpath
func (gen *Generator) Influenced(rng *xrand.RNG, inSeed []bool) bool {
	commIdx, seeded, decided := gen.explore(rng, inSeed)
	if decided || !seeded {
		return decided
	}
	comm := gen.part.Community(commIdx)
	return gen.membersReached(len(comm.Members), comm.Threshold, inSeed) >= comm.Threshold
}

// FractionalInfluence draws one RIC sample and returns
// min(|I_g(S)|/h_g, 1) — the fractional statistic whose expectation is
// ν(S)/b (paper eq. 6). Used by the ν-guided stop rule. Like
// Influenced, it stops once the BFS trees decide the answer (here:
// min(|I_g(S)|, h) = h).
//
//imc:hotpath
func (gen *Generator) FractionalInfluence(rng *xrand.RNG, inSeed []bool) float64 {
	commIdx, seeded, decided := gen.explore(rng, inSeed)
	if decided {
		return 1
	}
	if !seeded {
		return 0
	}
	comm := gen.part.Community(commIdx)
	h := comm.Threshold
	return float64(gen.membersReached(len(comm.Members), h, inSeed)) / float64(h)
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
// From the first seed on, explore also keeps root[s], the member at
// the root of slot s's BFS tree: the tree of first discoveries, whose
// edges are live edges walked backwards, so a seed in member j's tree
// reaches j. mark[j] == epoch flags the members whose tree holds a
// seed. Once h distinct members' trees do, the sample is influenced
// whatever the rest of the BFS would find, so explore returns at once
// with decided set, leaving the subgraph unfinished. A draw no seed
// enters keeps no roots at all.
//
//imc:hotpath
func (gen *Generator) explore(rng *xrand.RNG, inSeed []bool) (commIdx int, seeded, decided bool) {
	commIdx = gen.alias.Draw(rng)
	comm := gen.part.Community(commIdx)
	members := comm.Members

	gen.epoch++
	epoch := gen.epoch
	stamp := gen.stamp
	region := gen.region[:0]
	liveOff := gen.liveOff[:0]
	live := gen.live[:0]
	// root holds every slot's root once tracking is set, at the first
	// seed.
	root := gen.root[:0]
	tracking := false
	hits := 0
	for _, m := range members {
		stamp[m] = slotStamp{epoch, int32(len(region))}
		region = append(region, m)
		if inSeed != nil && inSeed[m] {
			seeded = true
		}
	}
	if seeded {
		root, tracking = gen.rootsSoFar(len(members), nil, nil), true
		mark := gen.mark[:len(members)]
		for j, m := range members {
			if inSeed[m] {
				mark[j] = epoch
				hits++
			}
		}
		decided = hits >= comm.Threshold
	}
	if decided {
		// The members alone decide the sample: no in-edge is drawn.
		gen.region, gen.liveOff, gen.root = region, append(liveOff, 0), root
		return commIdx, seeded, decided
	}
bfs:
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
			if st.epoch == epoch {
				live[k] = st.slot
				continue
			}
			st = slotStamp{epoch, int32(len(region))}
			stamp[v] = st
			region = append(region, v)
			live[k] = st.slot
			if tracking {
				//lint:allow hotpath: root grows with region inside this loop, so no length relation holds before it; every expanded slot has a root
				root = append(root, root[s])
			}
			if inSeed == nil || !inSeed[v] {
				continue
			}
			seeded = true
			if !tracking {
				root, tracking = gen.rootsSoFar(len(members), liveOff, live[:k+1]), true
			}
			if r := root[len(root)-1]; gen.mark[r] != epoch {
				gen.mark[r] = epoch
				if hits++; hits >= comm.Threshold {
					decided = true
					break bfs
				}
			}
		}
	}
	gen.region = region
	gen.liveOff = append(liveOff, int32(len(live)))
	gen.live = live
	gen.root = root
	return commIdx, seeded, decided
}

// rootsSoFar returns the BFS-tree root of every slot explore has
// discovered so far, in gen.root's storage, and makes gen.mark cover
// the members. liveOff and live are the slot CSR written so far: a row
// per expanded slot, the last one (the slot being expanded) running to
// the end of live, its newest discovery. Slots are numbered in
// discovery order, so scanning the rows in order, an entry equal to
// the next undiscovered slot is that slot's discovery and takes the
// root of the row's slot.
//
//imc:hotpath
func (gen *Generator) rootsSoFar(numMembers int, liveOff, live []int32) []int32 {
	if len(gen.mark) < numMembers {
		gen.mark = append(gen.mark, make([]int32, numMembers-len(gen.mark))...)
	}
	root := gen.root[:0]
	for j := 0; j < numMembers; j++ {
		root = append(root, int32(j))
	}
	next := int32(numMembers)
	for t, lo := range liveOff {
		hi := int32(len(live))
		if t+1 < len(liveOff) {
			hi = liveOff[t+1]
		}
		for _, w := range live[lo:hi] {
			if w == next {
				//lint:allow hotpath: root grows as the scan discovers slots, so no length relation holds before the loop; row t's slot was discovered before it was expanded
				root = append(root, root[t])
				next++
			}
		}
	}
	return root
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
