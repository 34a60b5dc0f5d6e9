// Package baselines implements heuristic comparators from the paper's
// evaluation (Section VI-A): HBC (high beneficial connection) and KS
// (knapsack over communities), plus the degree-discount heuristic. The
// third comparator, IM (classic influence maximization), is
// internal/ris, which needs no partition.
package baselines

import (
	"fmt"
	"sort"

	"imc/internal/community"
	"imc/internal/graph"
)

// HBC selects the k nodes with the highest beneficial connection
// B(u) = Σ_{v ∈ N_out(u)} w(u,v) · b_C(v) / h_C(v), crediting each
// out-neighbor's community benefit scaled by how hard that community is
// to activate.
func HBC(g *graph.Graph, part *community.Partition, k int) ([]graph.NodeID, error) {
	if err := check(g, part, k); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	score := make([]float64, n)
	for u := graph.NodeID(0); int(u) < n; u++ {
		tos, ws := g.OutNeighbors(u)
		s := 0.0
		for i, v := range tos {
			ci := part.Of(v)
			if ci == community.Unassigned {
				continue
			}
			c := part.Community(int(ci))
			s += ws[i] * c.Benefit / float64(c.Threshold)
		}
		// A node's own membership also counts toward activating its
		// community; credit it like a weight-1 self connection.
		if ci := part.Of(u); ci != community.Unassigned {
			c := part.Community(int(ci))
			s += c.Benefit / float64(c.Threshold)
		}
		score[u] = s
	}
	return topK(score, k), nil
}

// KS solves the community-selection knapsack exactly by dynamic
// programming — thresholds are costs, benefits are values, k is the
// budget — then seeds each selected community with its h_i highest
// out-degree members. KS deliberately ignores the diffusion process,
// which is why the paper reports it trailing every other method.
func KS(g *graph.Graph, part *community.Partition, k int) ([]graph.NodeID, error) {
	if err := check(g, part, k); err != nil {
		return nil, err
	}
	r := part.NumCommunities()
	// dp[w] = best value with budget w; choice tracking for recovery.
	dp := make([]float64, k+1)
	take := make([][]bool, r)
	for i := 0; i < r; i++ {
		take[i] = make([]bool, k+1)
		c := part.Community(i)
		cost := c.Threshold
		if cost > k {
			continue
		}
		for w := k; w >= cost; w-- {
			if cand := dp[w-cost] + c.Benefit; cand > dp[w] {
				dp[w] = cand
				take[i][w] = true
			}
		}
	}
	// Recover the chosen communities.
	var chosen []int
	w := k
	for i := r - 1; i >= 0; i-- {
		if w >= 0 && take[i][w] {
			chosen = append(chosen, i)
			w -= part.Community(i).Threshold
		}
	}
	seeds := make([]graph.NodeID, 0, k)
	seen := make(map[graph.NodeID]struct{}, k)
	for _, ci := range chosen {
		c := part.Community(ci)
		members := append([]graph.NodeID(nil), c.Members...)
		sort.Slice(members, func(a, b int) bool {
			da, db := g.OutDegree(members[a]), g.OutDegree(members[b])
			if da != db {
				return da > db
			}
			return members[a] < members[b]
		})
		for _, m := range members[:c.Threshold] {
			seeds = append(seeds, m)
			seen[m] = struct{}{}
		}
	}
	// Spend leftover budget on globally high-out-degree nodes.
	if len(seeds) < k {
		score := make([]float64, g.NumNodes())
		for u := range score {
			score[u] = float64(g.OutDegree(graph.NodeID(u)))
		}
		for _, v := range topK(score, k) {
			if len(seeds) == k {
				break
			}
			if _, dup := seen[v]; !dup {
				seeds = append(seeds, v)
				seen[v] = struct{}{}
			}
		}
	}
	return seeds, nil
}

func check(g *graph.Graph, part *community.Partition, k int) error {
	if k < 1 {
		return fmt.Errorf("baselines: k=%d must be ≥ 1", k)
	}
	if k > g.NumNodes() {
		return fmt.Errorf("baselines: k=%d exceeds node count %d", k, g.NumNodes())
	}
	if g.NumNodes() != part.NumNodes() {
		return fmt.Errorf("baselines: graph has %d nodes but partition covers %d", g.NumNodes(), part.NumNodes())
	}
	return nil
}

// topK returns the indices of the k largest scores (ties by smaller
// index).
func topK(score []float64, k int) []graph.NodeID {
	idx := make([]graph.NodeID, len(score))
	for i := range idx {
		idx[i] = graph.NodeID(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := score[idx[a]], score[idx[b]]
		if sa > sb {
			return true
		}
		if sa < sb {
			return false
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return append([]graph.NodeID(nil), idx[:k]...)
}
