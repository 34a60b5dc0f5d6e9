package ric

import (
	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/xrand"
)

// GenerateNaive draws a sample the WRONG way — each member of the
// source community runs its own reverse BFS with independently
// re-sampled edge states, instead of sharing one deterministic
// subgraph as Alg. 1's st[] array mandates.
//
// The result is intentionally biased: whenever one edge lies on the
// influence paths of multiple members, the naive sampler treats the
// members' activations as independent and underestimates the
// probability of jointly reaching the threshold. It exists solely for
// the ablation test and benchmark that quantify what the paper's
// shared-state construction buys; never use it for estimation.
func (gen *Generator) GenerateNaive(rng *xrand.RNG) rawSample {
	commIdx := gen.alias.Draw(rng)
	comm := gen.part.Community(commIdx)
	members := comm.Members
	words := maskWords(len(members))
	gen.coverGen++

	raw := rawSample{
		comm:       int32(commIdx),
		threshold:  int32(comm.Threshold),
		numMembers: int32(len(members)),
	}
	for j, m := range members {
		// Fresh edge world per member: reverse BFS re-sampling every
		// edge it touches.
		gen.epoch++
		gen.queue = gen.queue[:0]
		gen.queue = append(gen.queue, m)
		gen.nodeEpoch[m] = gen.epoch
		for head := 0; head < len(gen.queue); head++ {
			v := gen.queue[head]
			slot := gen.coverSlot[v]
			if gen.coverEpoch[v] != gen.coverGen {
				slot = int32(len(raw.coverNodes))
				raw.coverNodes = append(raw.coverNodes, v)
				raw.coverBits = append(raw.coverBits, make([]uint64, words)...)
				gen.coverEpoch[v] = gen.coverGen
				gen.coverSlot[v] = slot
			}
			Mask(raw.coverBits[int(slot)*words:]).set(j)
			froms, ws, _ := gen.g.InNeighbors(v)
			for i, w := range froms {
				if gen.nodeEpoch[w] == gen.epoch {
					continue
				}
				live := false
				switch gen.model {
				case diffusion.LT:
					// Naive LT: sample each in-edge independently too.
					live = rng.Bernoulli(ws[i])
				default:
					live = rng.Bernoulli(ws[i])
				}
				if live {
					gen.nodeEpoch[w] = gen.epoch
					gen.queue = append(gen.queue, w)
				}
			}
		}
	}
	return raw
}

// NaiveCHat estimates ĉ over count naive samples for a seed set — the
// biased estimator the ablation compares against.
func NaiveCHat(g *graph.Graph, gen *Generator, seeds []graph.NodeID, count int, seed uint64) float64 {
	inSeed := make(map[graph.NodeID]struct{}, len(seeds))
	for _, s := range seeds {
		inSeed[s] = struct{}{}
	}
	root := xrand.New(seed)
	hits := 0
	for i := 0; i < count; i++ {
		raw := gen.GenerateNaive(root.Split(uint64(i)))
		words := maskWords(int(raw.numMembers))
		covered := make(Mask, words)
		for j, v := range raw.coverNodes {
			if _, ok := inSeed[v]; ok {
				Mask(raw.coverBits[j*words : (j+1)*words]).OrInto(covered)
			}
		}
		if int32(covered.OnesCount()) >= raw.threshold {
			hits++
		}
	}
	return gen.part.TotalBenefit() * float64(hits) / float64(count)
}
