package ric

import (
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
	gen.epoch++
	sample := gen.epoch

	raw := rawSample{
		comm:       int32(commIdx),
		threshold:  int32(comm.Threshold),
		numMembers: int32(len(members)),
	}
	// reach marks v reached by the current pass, opening v's cover
	// slot on its first touch in this sample, and sets member j's bit.
	var pass int32
	reach := func(v graph.NodeID, j int) {
		st := gen.stamp[v]
		if st.epoch != sample {
			st = slotStamp{sample, int32(len(raw.coverNodes))}
			gen.stamp[v] = st
			raw.coverNodes = append(raw.coverNodes, v)
			raw.coverBits = append(raw.coverBits, make([]uint64, words)...)
			if int(st.slot) == len(gen.mark) {
				gen.mark = append(gen.mark, 0)
			}
		}
		gen.mark[st.slot] = pass
		Mask(raw.coverBits[int(st.slot)*words:]).set(j)
	}
	for j, m := range members {
		// Fresh edge world per member: reverse BFS re-sampling every
		// edge it touches. Naive LT samples each in-edge independently
		// too.
		gen.epoch++
		pass = gen.epoch
		queue := append(gen.region[:0], m)
		reach(m, j)
		for head := 0; head < len(queue); head++ {
			froms, ws, _ := gen.g.InNeighbors(queue[head])
			for i, w := range froms {
				st := gen.stamp[w]
				if st.epoch == sample && gen.mark[st.slot] == pass {
					continue
				}
				if rng.Bernoulli(ws[i]) {
					reach(w, j)
					queue = append(queue, w)
				}
			}
		}
		gen.region = queue
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
