package ric

import (
	"context"
	"testing"
	"testing/quick"

	"imc/internal/community"
	"imc/internal/gen"
	"imc/internal/graph"
)

// quickPool generates a small random pool for property checks.
func quickPool(seed uint64) (*Pool, *community.Partition, error) {
	g, err := gen.RandomDirected(14, 40, 0.6, seed)
	if err != nil {
		return nil, nil, err
	}
	part, err := community.Random(14, 4, seed+1)
	if err != nil {
		return nil, nil, err
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	pool, err := NewPool(g, part, PoolOptions{Seed: seed + 2})
	if err != nil {
		return nil, nil, err
	}
	if err := pool.GenerateCtx(context.Background(), 200); err != nil {
		return nil, nil, err
	}
	return pool, part, nil
}

// Property: structural invariants of every sample and index entry —
// thresholds within [1, members], cover bits within member range,
// touch counts consistent with the inverted index.
func TestQuickPoolStructuralInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		pool, part, err := quickPool(seed % 100)
		if err != nil {
			return false
		}
		// Per-sample sanity.
		perSampleTouch := make([]int32, pool.NumSamples())
		for i := 0; i < pool.NumSamples(); i++ {
			smp := pool.Sample(i)
			comm := part.Community(int(smp.Comm))
			if int(smp.NumMembers) != len(comm.Members) {
				return false
			}
			if smp.Threshold < 1 || int(smp.Threshold) > len(comm.Members) {
				return false
			}
			if smp.TouchCount < smp.NumMembers {
				// Every member covers itself, so touch ≥ members.
				return false
			}
		}
		// Index entries: bits within range, counted per sample.
		for v := graph.NodeID(0); int(v) < 14; v++ {
			w := pool.Words()
			ids, masks := pool.Entries(v)
			for e, id := range ids {
				smp := pool.Sample(int(id))
				bits := Mask(masks[e*w : (e+1)*w])
				if bits.OnesCount() == 0 {
					return false // touching means covering ≥ 1 member
				}
				for _, bit := range onesOf(bits) {
					if bit >= int(smp.NumMembers) {
						return false
					}
				}
				perSampleTouch[id]++
			}
		}
		for i := 0; i < pool.NumSamples(); i++ {
			if perSampleTouch[i] != pool.Sample(i).TouchCount {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: community frequencies sum to the pool size and only index
// real communities.
func TestQuickCommunityFrequencies(t *testing.T) {
	f := func(seed uint64) bool {
		pool, part, err := quickPool(seed % 100)
		if err != nil {
			return false
		}
		total := 0
		for c := 0; c < part.NumCommunities(); c++ {
			freq := pool.CommunityFrequency(c)
			if freq < 0 {
				return false
			}
			total += freq
		}
		return total == pool.NumSamples()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: CHat of the empty set is 0 and of all nodes is the total
// benefit.
func TestQuickCHatExtremes(t *testing.T) {
	f := func(seed uint64) bool {
		pool, part, err := quickPool(seed % 100)
		if err != nil {
			return false
		}
		if pool.CHat(nil) != 0 {
			return false
		}
		all := make([]graph.NodeID, 14)
		for i := range all {
			all[i] = graph.NodeID(i)
		}
		diff := pool.CHat(all) - part.TotalBenefit()
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func onesOf(m Mask) []int {
	var out []int
	for i := 0; i < len(m)*64; i++ {
		if m.Test(i) {
			out = append(out, i)
		}
	}
	return out
}
