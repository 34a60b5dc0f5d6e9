// Package community provides the community substrate for IMC: disjoint
// node sets with activation thresholds and benefits, plus the two
// partitioners used in the paper's evaluation (Louvain modularity
// detection and a random baseline) and the size-cap splitting rule.
package community

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"imc/internal/graph"
	"imc/internal/xrand"
)

// Unassigned marks nodes that belong to no community.
const Unassigned = int32(-1)

// Community is one disjoint set of users with an activation threshold
// h (the community is influenced iff ≥ h members activate) and a benefit
// b earned when it is influenced.
type Community struct {
	// Members lists the community's nodes in ascending order.
	Members []graph.NodeID
	// Threshold is h_i ≥ 1.
	Threshold int
	// Benefit is b_i > 0.
	Benefit float64
}

// Partition is a set of disjoint communities over a graph's nodes.
// Nodes may be left unassigned. Construct with New or a partitioner.
type Partition struct {
	comms []Community
	of    []int32 // node -> community index or Unassigned
	n     int
}

// New builds a partition over n nodes from explicit member lists.
// Every node may appear in at most one community. Thresholds default to
// 1 and benefits to the community population; adjust with the Set*
// methods.
func New(n int, memberSets [][]graph.NodeID) (*Partition, error) {
	p := &Partition{
		of: make([]int32, n),
		n:  n,
	}
	for i := range p.of {
		p.of[i] = Unassigned
	}
	// Every member list is a capped window of one backing array, so a
	// partition of n singletons costs a few allocations, not n.
	total := 0
	for _, members := range memberSets {
		total += len(members)
	}
	backing := make([]graph.NodeID, 0, total)
	p.comms = make([]Community, 0, len(memberSets))
	for ci, members := range memberSets {
		if len(members) == 0 {
			continue
		}
		lo := len(backing)
		backing = append(backing, members...)
		ms := backing[lo:len(backing):len(backing)]
		slices.Sort(ms)
		for _, u := range ms {
			if u < 0 || int(u) >= n {
				return nil, fmt.Errorf("community: node %d out of range [0, %d)", u, n)
			}
			if p.of[u] != Unassigned {
				return nil, fmt.Errorf("community: node %d in both community %d and %d", u, p.of[u], ci)
			}
			p.of[u] = int32(len(p.comms))
		}
		p.comms = append(p.comms, Community{
			Members:   ms,
			Threshold: 1,
			Benefit:   float64(len(ms)),
		})
	}
	if len(p.comms) == 0 {
		return nil, errors.New("community: partition has no non-empty communities")
	}
	return p, nil
}

// NumNodes returns the size of the underlying node universe.
func (p *Partition) NumNodes() int { return p.n }

// NumCommunities returns r, the community count.
func (p *Partition) NumCommunities() int { return len(p.comms) }

// Community returns the i-th community. The returned struct shares its
// member slice with the partition; treat it as read-only.
func (p *Partition) Community(i int) Community { return p.comms[i] }

// Of returns the community index of node u, or Unassigned.
func (p *Partition) Of(u graph.NodeID) int32 { return p.of[u] }

// TotalBenefit returns b = Σ b_i.
func (p *Partition) TotalBenefit() float64 {
	total := 0.0
	for _, c := range p.comms {
		total += c.Benefit
	}
	return total
}

// MaxThreshold returns h = max_i h_i.
func (p *Partition) MaxThreshold() int {
	h := 0
	for _, c := range p.comms {
		if c.Threshold > h {
			h = c.Threshold
		}
	}
	return h
}

// MinBenefit returns β = min_i b_i.
func (p *Partition) MinBenefit() float64 {
	if len(p.comms) == 0 {
		return 0
	}
	b := p.comms[0].Benefit
	for _, c := range p.comms[1:] {
		if c.Benefit < b {
			b = c.Benefit
		}
	}
	return b
}

// SetBoundedThresholds sets h_i = min(h, |C_i|) for every community —
// the paper's "bounded activation threshold" configuration (h = 2).
func (p *Partition) SetBoundedThresholds(h int) {
	if h < 1 {
		h = 1
	}
	for i := range p.comms {
		t := h
		if n := len(p.comms[i].Members); t > n {
			t = n
		}
		p.comms[i].Threshold = t
	}
}

// SetFractionThresholds sets h_i = max(1, ⌈frac·|C_i|⌉) — the paper's
// "regular" configuration uses frac = 0.5.
func (p *Partition) SetFractionThresholds(frac float64) {
	for i := range p.comms {
		t := int(math.Ceil(frac * float64(len(p.comms[i].Members))))
		if t < 1 {
			t = 1
		}
		if n := len(p.comms[i].Members); t > n {
			t = n
		}
		p.comms[i].Threshold = t
	}
}

// SetPopulationBenefits sets b_i = |C_i| (the paper's benefit rule).
func (p *Partition) SetPopulationBenefits() {
	for i := range p.comms {
		p.comms[i].Benefit = float64(len(p.comms[i].Members))
	}
}

// SetUniformBenefits sets b_i = b for every community.
func (p *Partition) SetUniformBenefits(b float64) {
	if b <= 0 {
		b = 1
	}
	for i := range p.comms {
		p.comms[i].Benefit = b
	}
}

// SetBenefit overrides one community's benefit (scenario-specific, e.g.
// electoral votes in the election example).
func (p *Partition) SetBenefit(i int, b float64) error {
	if i < 0 || i >= len(p.comms) {
		return fmt.Errorf("community: index %d out of range [0, %d)", i, len(p.comms))
	}
	if b <= 0 {
		return fmt.Errorf("community: benefit must be positive, got %g", b)
	}
	p.comms[i].Benefit = b
	return nil
}

// SetThreshold overrides one community's threshold.
func (p *Partition) SetThreshold(i, h int) error {
	if i < 0 || i >= len(p.comms) {
		return fmt.Errorf("community: index %d out of range [0, %d)", i, len(p.comms))
	}
	if h < 1 || h > len(p.comms[i].Members) {
		return fmt.Errorf("community: threshold %d out of [1, %d]", h, len(p.comms[i].Members))
	}
	p.comms[i].Threshold = h
	return nil
}

// Validate checks the partition invariants: disjoint member sets that
// match the reverse index, thresholds within [1, |C_i|], positive
// benefits.
func (p *Partition) Validate() error {
	seen := make(map[graph.NodeID]int, p.n)
	for ci, c := range p.comms {
		if len(c.Members) == 0 {
			return fmt.Errorf("community: community %d is empty", ci)
		}
		if c.Threshold < 1 || c.Threshold > len(c.Members) {
			return fmt.Errorf("community: community %d threshold %d out of [1, %d]", ci, c.Threshold, len(c.Members))
		}
		if c.Benefit <= 0 {
			return fmt.Errorf("community: community %d benefit %g not positive", ci, c.Benefit)
		}
		for _, u := range c.Members {
			if prev, dup := seen[u]; dup {
				return fmt.Errorf("community: node %d in communities %d and %d", u, prev, ci)
			}
			seen[u] = ci
			if int(p.of[u]) != ci {
				return fmt.Errorf("community: reverse index for node %d is %d, want %d", u, p.of[u], ci)
			}
		}
	}
	for u, ci := range p.of {
		if ci == Unassigned {
			continue
		}
		if got, ok := seen[graph.NodeID(u)]; !ok || got != int(ci) {
			return fmt.Errorf("community: reverse index claims node %d in community %d but member list disagrees", u, ci)
		}
	}
	return nil
}

// SplitBySize enforces the paper's size cap: any community larger than s
// is split into ⌈|C|/s⌉ chunks. Thresholds and benefits are re-derived
// afterwards by the caller (the split resets them to the defaults of
// New). The split is deterministic in seed (members are shuffled before
// chunking so splits are not biased by node-ID order).
func (p *Partition) SplitBySize(s int, seed uint64) (*Partition, error) {
	if s < 1 {
		return nil, fmt.Errorf("community: size cap %d must be ≥ 1", s)
	}
	rng := xrand.New(seed)
	sets := make([][]graph.NodeID, 0, len(p.comms))
	for _, c := range p.comms {
		if len(c.Members) <= s {
			sets = append(sets, c.Members)
			continue
		}
		shuffled := append([]graph.NodeID(nil), c.Members...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for off := 0; off < len(shuffled); off += s {
			end := off + s
			if end > len(shuffled) {
				end = len(shuffled)
			}
			sets = append(sets, shuffled[off:end])
		}
	}
	return New(p.n, sets)
}

// Random partitions all n nodes uniformly into r communities — the
// paper's Random community-formation baseline.
func Random(n, r int, seed uint64) (*Partition, error) {
	if r < 1 {
		return nil, fmt.Errorf("community: community count %d must be ≥ 1", r)
	}
	if r > n {
		r = n
	}
	rng := xrand.New(seed)
	sets := make([][]graph.NodeID, r)
	perm := rng.Perm(n)
	// Guarantee non-empty communities by dealing the first r nodes round
	// robin, then assigning the rest uniformly.
	for i, u := range perm {
		var c int
		if i < r {
			c = i
		} else {
			c = rng.Intn(r)
		}
		sets[c] = append(sets[c], graph.NodeID(u))
	}
	return New(n, sets)
}

// Sizes returns the community sizes in index order.
func (p *Partition) Sizes() []int {
	out := make([]int, len(p.comms))
	for i, c := range p.comms {
		out[i] = len(c.Members)
	}
	return out
}
