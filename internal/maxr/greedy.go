package maxr

import (
	"context"

	"imc/internal/graph"
	"imc/internal/ric"
)

// coverageGain returns the increase in influenced-sample count if v is
// added to the seed set tracked by st.
//
//imc:hotpath
func coverageGain(pool *ric.Pool, st *ric.State, v graph.NodeID) int {
	gain := 0
	w := pool.Words()
	ids, masks := pool.Entries(v)
	for _, id := range ids {
		m := ric.Mask(masks[:w:w])
		masks = masks[w:]
		h := pool.Sample(int(id)).Threshold
		cur := st.CoverCount(id)
		if cur >= h {
			continue
		}
		if cur+st.NewBits(id, m) >= h {
			gain++
		}
	}
	return gain
}

// fractionalGain returns the increase in Σ min(|I_g|/h_g, 1) if v is
// added to the seed set tracked by st — the marginal of ν_R up to the
// b/|R| scale.
//
//imc:hotpath
func fractionalGain(pool *ric.Pool, st *ric.State, v graph.NodeID) float64 {
	gain := 0.0
	w := pool.Words()
	ids, masks := pool.Entries(v)
	for _, id := range ids {
		m := ric.Mask(masks[:w:w])
		masks = masks[w:]
		h := pool.Sample(int(id)).Threshold
		cur := st.CoverCount(id)
		if cur >= h {
			continue
		}
		after := cur + st.NewBits(id, m)
		if after > h {
			after = h
		}
		gain += float64(after-cur) / float64(h)
	}
	return gain
}

// tieBreakGain scores a candidate when ĉ_R marginals tie (typically at
// zero, when no single node crosses any threshold): fractional member
// coverage weighted toward samples that are already partially covered.
// The (1 + cur/h) factor makes successive picks finish communities
// they started instead of scattering — the concentration that the
// non-submodular objective rewards but that the plain marginal cannot
// see.
//
//imc:hotpath
func tieBreakGain(pool *ric.Pool, st *ric.State, v graph.NodeID) float64 {
	gain := 0.0
	w := pool.Words()
	ids, masks := pool.Entries(v)
	for _, id := range ids {
		m := ric.Mask(masks[:w:w])
		masks = masks[w:]
		h := pool.Sample(int(id)).Threshold
		cur := st.CoverCount(id)
		if cur >= h {
			continue
		}
		after := cur + st.NewBits(id, m)
		if after > h {
			after = h
		}
		gain += float64(after-cur) / float64(h) * (1 + float64(cur)/float64(h))
	}
	return gain
}

// GreedyCHatCtx runs plain greedy directly on ĉ_R. Because ĉ_R is
// non-submodular, marginals are re-evaluated for every candidate in
// every round (no lazy evaluation is sound here).
//
// Ties in the ĉ_R marginal — in particular the all-zero rounds that
// occur whenever no single node can push any sample across its
// threshold — are broken by tieBreakGain. Without the tie-break, plain
// greedy degenerates to arbitrary picks exactly in the non-submodular
// regime the paper highlights; with it, the early picks build toward
// thresholds and later rounds recover the coverage signal.
//
// ctx is polled every ctxPollBatch marginal evaluations.
//
//imc:hotpath
//imc:longrun
func GreedyCHatCtx(ctx context.Context, pool *ric.Pool, k int) ([]graph.NodeID, error) {
	if err := validate(pool, k); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cands := candidates(pool)
	st := pool.NewState()
	seeds := make([]graph.NodeID, 0, k)
	// A flat membership slice, not a map: the candidate scan reads it
	// once per node per round, and an indexed load stays cheap where a
	// map lookup hashes.
	used := make([]bool, pool.Graph().NumNodes())
	evals := 0
	for len(seeds) < k {
		best := graph.NodeID(-1)
		bestGain := -1
		bestFrac := -1.0
		for _, v := range cands {
			if evals&(ctxPollBatch-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			evals++
			if used[v] {
				continue
			}
			// Candidates are sorted by touch count, and a node's
			// coverage gain can never exceed the number of samples it
			// touches — once that bound drops below the incumbent,
			// nothing later can win (equal-gain ties still require
			// touch ≥ gain, so they are never pruned). This exact
			// prune is what keeps the non-submodular greedy usable on
			// large pools.
			if pool.TouchCount(v) < bestGain {
				break
			}
			g := coverageGain(pool, st, v)
			if g < bestGain {
				continue
			}
			if g > bestGain {
				bestGain = g
				bestFrac = tieBreakGain(pool, st, v)
				best = v
				continue
			}
			if f := tieBreakGain(pool, st, v); f > bestFrac {
				bestFrac = f
				best = v
			}
		}
		if best < 0 {
			break
		}
		st.Add(best)
		seeds = append(seeds, best)
		used[best] = true
	}
	return padSeeds(pool, seeds, k), nil
}

// celfItem is one lazy-greedy heap entry. The heap holds one per
// candidate node, so the layout is pinned waste-free: round is an
// int32 — seed-set sizes fit comfortably — so it packs into one word
// with the int32 node ID (16 bytes per entry instead of 24).
//
//imc:compact
type celfItem struct {
	gain  float64
	node  graph.NodeID
	round int32 // seed-set size at which gain was computed
}

// celfHeap is a concrete binary min-position heap over celfItems,
// ordered by (gain desc, node asc) — a total order, so the pop sequence
// is fully determined by the contents. It replaces container/heap: the
// interface indirection boxed every item through `any` and dispatched
// Less/Swap dynamically on the hottest edge of the lazy greedy, where a
// concrete sift inlines. The sift algorithms mirror container/heap's
// exactly, so the pop order (and therefore every solver output) is
// unchanged.
type celfHeap []celfItem

// less is the heap order: higher gain first, node ID breaking ties.
func (h celfHeap) less(i, j int) bool {
	if h[i].gain > h[j].gain {
		return true
	}
	if h[i].gain < h[j].gain {
		return false
	}
	return h[i].node < h[j].node
}

// init establishes the heap invariant over arbitrary contents.
func (h celfHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// push adds an item and restores the invariant.
//
//imc:hotpath
func (h *celfHeap) push(it celfItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

// pop removes and returns the top (best) item.
//
//imc:hotpath
func (h *celfHeap) pop() celfItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	top := s[n]
	*h = s[:n]
	(*h).down(0)
	return top
}

func (h celfHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h celfHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// GreedyNuCtx runs CELF lazy greedy on the submodular upper bound ν_R
// (Lemma 3 proves submodularity, so stale heap gains are valid upper
// bounds and lazy evaluation is exact). ctx is polled every
// ctxPollBatch CELF pops.
//
//imc:hotpath
//imc:longrun
func GreedyNuCtx(ctx context.Context, pool *ric.Pool, k int) ([]graph.NodeID, error) {
	if err := validate(pool, k); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cands := candidates(pool)
	st := pool.NewState()
	h := make(celfHeap, 0, len(cands))
	for _, v := range cands {
		h = append(h, celfItem{node: v, gain: fractionalGain(pool, st, v), round: 0})
	}
	h.init()
	seeds := make([]graph.NodeID, 0, k)
	pops := 0
	for len(seeds) < k && len(h) > 0 {
		if pops&(ctxPollBatch-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		pops++
		top := h.pop()
		if int(top.round) == len(seeds) {
			if top.gain <= 0 {
				break
			}
			st.Add(top.node)
			seeds = append(seeds, top.node)
			continue
		}
		top.gain = fractionalGain(pool, st, top.node)
		top.round = int32(len(seeds))
		h.push(top)
	}
	return padSeeds(pool, seeds, k), nil
}
