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
//imc:compact
type Generator struct {
	g     *graph.Graph
	part  *community.Partition
	model diffusion.Model
	alias *xrand.Alias

	// Epoch counters let us "clear" the per-node markers in O(1)
	// between samples: epoch versions the collective reverse-BFS
	// markers, coverGen is bumped once per Generate so cover slots stay
	// valid across all member BFS passes of the same sample. The two
	// int32s sit adjacent so they pack into one word — splitting them
	// between the 8-byte-aligned slice headers costs a padded word each
	// (the structlayout analyzer pins the minimal layout).
	epoch    int32
	coverGen int32

	// Collective reverse-BFS scratch.
	nodeEpoch []int32
	queue     []graph.NodeID
	// liveIn[u] holds the in-neighbors of u whose edge was sampled live
	// in the current sample's deterministic subgraph. Entries are reset
	// lazily via resetNodes.
	liveIn     [][]graph.NodeID
	resetNodes []graph.NodeID

	// Per-member BFS scratch (cover-slot assignment).
	coverEpoch []int32
	coverSlot  []int32
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
	n := g.NumNodes()
	return &Generator{
		g:          g,
		part:       part,
		model:      model,
		alias:      xrand.NewAlias(weights),
		nodeEpoch:  make([]int32, n),
		liveIn:     make([][]graph.NodeID, n),
		coverEpoch: make([]int32, n),
		coverSlot:  make([]int32, n),
	}, nil
}

// Generate draws one RIC sample (paper Alg. 1): select a source
// community, reverse-BFS a deterministic subgraph, and record each
// touching node's member coverage.
//
// Allocation contract: every node the collective BFS explores reaches
// at least one member (the BFS walks reverse live edges starting FROM
// the members), so the sample's cover set is exactly gen.resetNodes.
// That makes the footprint exact — one node slice and one flat word
// run holding every node's mask at the sample's natural width: two
// allocations per sample, both read once by the pool's fold.
//
//imc:hotpath
func (gen *Generator) Generate(rng *xrand.RNG) rawSample {
	commIdx, members := gen.collectiveBFS(rng)
	comm := gen.part.Community(commIdx)
	gen.coverGen++

	numMembers := len(members)
	touch := len(gen.resetNodes)
	words := maskWords(numMembers)
	coverBits := make([]uint64, touch*words)
	coverNodes := make([]graph.NodeID, 0, touch)
	// Hoist the scratch state out of the pointer: the BFS bound becomes
	// a local length (one bounds proof per scan, no per-iteration field
	// reload through gen) and the epoch tables index without re-reading
	// the headers.
	queue := gen.queue
	nodeEpoch := gen.nodeEpoch
	coverEpoch := gen.coverEpoch
	coverSlot := gen.coverSlot
	liveIn := gen.liveIn
	coverGen := gen.coverGen
	for j, m := range members {
		gen.epoch++
		epoch := gen.epoch
		queue = queue[:0]
		queue = append(queue, m)
		nodeEpoch[m] = epoch
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			slot := coverSlot[v]
			if coverEpoch[v] != coverGen {
				slot = int32(len(coverNodes))
				coverNodes = append(coverNodes, v)
				coverEpoch[v] = coverGen
				coverSlot[v] = slot
			}
			Mask(coverBits[int(slot)*words:]).set(j)
			for _, w := range liveIn[v] {
				if nodeEpoch[w] != epoch {
					nodeEpoch[w] = epoch
					queue = append(queue, w)
				}
			}
		}
	}
	gen.queue = queue
	gen.release()
	return rawSample{
		comm:       int32(commIdx),
		threshold:  int32(comm.Threshold),
		numMembers: int32(numMembers),
		coverNodes: coverNodes,
		coverBits:  coverBits,
	}
}

// Influenced draws one RIC sample and reports whether the seed set
// (given as an n-length membership slice) influences it, without
// materializing the cover index. This is the hot path of the Estimate
// procedure (paper Alg. 6).
//
//imc:hotpath
func (gen *Generator) Influenced(rng *xrand.RNG, inSeed []bool) bool {
	commIdx, members := gen.collectiveBFS(rng)
	comm := gen.part.Community(commIdx)
	need := comm.Threshold
	hit := 0
	for _, m := range members {
		if gen.memberReachedBy(m, inSeed) {
			hit++
			if hit >= need {
				gen.release()
				return true
			}
		}
	}
	gen.release()
	return false
}

// FractionalInfluence draws one RIC sample and returns
// min(|I_g(S)|/h_g, 1) — the fractional statistic whose expectation is
// ν(S)/b (paper eq. 6). Used by the ν-guided stop rule.
//
//imc:hotpath
func (gen *Generator) FractionalInfluence(rng *xrand.RNG, inSeed []bool) float64 {
	commIdx, members := gen.collectiveBFS(rng)
	comm := gen.part.Community(commIdx)
	hit := 0
	for _, m := range members {
		if gen.memberReachedBy(m, inSeed) {
			hit++
			if hit >= comm.Threshold {
				break
			}
		}
	}
	gen.release()
	frac := float64(hit) / float64(comm.Threshold)
	if frac > 1 {
		frac = 1
	}
	return frac
}

// memberReachedBy BFSes backwards from one member over the live
// subgraph, reporting whether any seed node reaches the member.
//
//imc:hotpath
func (gen *Generator) memberReachedBy(m graph.NodeID, inSeed []bool) bool {
	gen.epoch++
	epoch := gen.epoch
	nodeEpoch := gen.nodeEpoch
	liveIn := gen.liveIn
	queue := gen.queue[:0]
	queue = append(queue, m)
	nodeEpoch[m] = epoch
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if inSeed[v] {
			gen.queue = queue // keep the grown capacity for the next draw
			return true
		}
		for _, w := range liveIn[v] {
			if nodeEpoch[w] != epoch {
				nodeEpoch[w] = epoch
				queue = append(queue, w)
			}
		}
	}
	gen.queue = queue
	return false
}

// collectiveBFS performs Alg. 1's shared backward BFS: pick the source
// community, then explore every path that could activate any member,
// deciding each edge's live state exactly once. On return gen.liveIn
// holds the sampled deterministic subgraph restricted to the explored
// region, and gen.resetNodes lists the nodes to clean up.
//
//imc:hotpath
func (gen *Generator) collectiveBFS(rng *xrand.RNG) (int, []graph.NodeID) {
	commIdx := gen.alias.Draw(rng)
	members := gen.part.Community(commIdx).Members

	gen.epoch++
	epoch := gen.epoch
	nodeEpoch := gen.nodeEpoch
	liveIn := gen.liveIn
	queue := gen.queue[:0]
	resetNodes := gen.resetNodes[:0]
	for _, m := range members {
		if nodeEpoch[m] != epoch {
			nodeEpoch[m] = epoch
			queue = append(queue, m)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		resetNodes = append(resetNodes, u)
		switch gen.model {
		case diffusion.LT:
			gen.sampleInEdgesLT(u, rng)
		default:
			gen.sampleInEdgesIC(u, rng)
		}
		for _, v := range liveIn[u] {
			if nodeEpoch[v] != epoch {
				nodeEpoch[v] = epoch
				queue = append(queue, v)
			}
		}
	}
	gen.queue = queue
	gen.resetNodes = resetNodes
	return commIdx, members
}

// sampleInEdgesIC decides each incoming edge of u independently with its
// own probability (Independent Cascade), all in one LiveIn call over
// the graph's precomputed integer coins. LiveIn draws the variates a
// per-edge Bernoulli loop would and keeps the same edges, so every
// sample equals that loop's (TestSamplerMatchesBernoulliReference).
//
//imc:hotpath
func (gen *Generator) sampleInEdgesIC(u graph.NodeID, rng *xrand.RNG) {
	froms, coins := gen.g.InCoins(u)
	gen.liveIn[u] = rng.LiveIn(froms, coins, gen.liveIn[u][:0])
}

// sampleInEdgesLT picks at most one live in-edge for u, chosen with
// probability proportional to edge weight and total probability
// min(Σw, 1) — the standard reverse construction for the Linear
// Threshold model.
//
//imc:hotpath
func (gen *Generator) sampleInEdgesLT(u graph.NodeID, rng *xrand.RNG) {
	froms, ws, _ := gen.g.InNeighbors(u)
	ws = ws[:len(froms)] // one shared bounds proof for the parallel scan
	live := gen.liveIn[u][:0]
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
				live = append(live, v)
				break
			}
		}
	}
	gen.liveIn[u] = live
}

// release clears the live adjacency lists touched by the last sample.
func (gen *Generator) release() {
	for _, u := range gen.resetNodes {
		gen.liveIn[u] = gen.liveIn[u][:0]
	}
	gen.resetNodes = gen.resetNodes[:0]
}
