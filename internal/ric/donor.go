package ric

import "fmt"

// Donor wraps a frozen pool so its samples can be spliced into a
// compatible growing pool without regenerating them — the mechanism
// behind the pool cache's incremental doubling. The per-sample cover
// view is materialized once at construction (O(pool)), so repeated
// ExtendTo calls during a stop-and-stare schedule pay only for the
// samples they adopt.
//
// Adoption is sound because generation is stream-indexed: sample i of
// any pool with the same (graph, weights, partition, model, seed) is
// identical no matter which process drew it, so copying samples
// [cur, target) from the donor yields byte-for-byte the pool that
// GenerateCtx would have produced. The donor's identity is validated on
// every call; adoption copies each cover's node id and mask words into
// the target's index runs.
type Donor struct {
	src    *Pool      //imc:guardedby immutable
	covers *CoverView //imc:guardedby immutable
}

// NewDonor freezes pool as a sample donor. The pool must not be
// mutated afterwards (the cover view would go stale).
func NewDonor(pool *Pool) *Donor {
	return &Donor{src: pool, covers: pool.SampleCovers()}
}

// NumSamples returns how many samples the donor can supply.
func (d *Donor) NumSamples() int { return len(d.src.samples) }

// Pool returns the wrapped source pool (read-only).
func (d *Donor) Pool() *Pool { return d.src }

// ExtendTo appends donor samples to p until p holds min(target,
// donor size) samples, and reports how many were adopted. The target
// pool must be over the same graph and partition objects with the same
// seed and model — anything else would splice samples from a different
// stream family — and must not be ahead of the donor mid-stream in a
// way that breaks contiguity (p's next sample index is adopted first).
func (d *Donor) ExtendTo(p *Pool, target int) (int, error) {
	if p.g != d.src.g || p.part != d.src.part {
		return 0, fmt.Errorf("ric: donor and pool cover different graph or partition objects")
	}
	if p.seed != d.src.seed {
		return 0, fmt.Errorf("ric: donor seed %d does not match pool seed %d", d.src.seed, p.seed)
	}
	if p.model != d.src.model {
		return 0, fmt.Errorf("ric: donor model %v does not match pool model %v", d.src.model, p.model)
	}
	if p.offset != d.src.offset {
		return 0, fmt.Errorf("ric: donor stream offset %d does not match pool offset %d — local sample indexes would name different streams", d.src.offset, p.offset)
	}
	lo := len(p.samples)
	hi := target
	if hi > len(d.src.samples) {
		hi = len(d.src.samples)
	}
	if hi <= lo {
		return 0, nil
	}
	for i := lo; i < hi; i++ {
		smp := d.src.samples[i]
		p.samples = append(p.samples, smp)
		p.commFreq[smp.Comm]++
		for k := d.covers.Start[i]; k < d.covers.Start[i+1]; k++ {
			v := d.covers.Nodes[k]
			p.ids[v] = append(p.ids[v], int32(i))
			p.masks[v] = append(p.masks[v], d.covers.Mask(k)...)
		}
	}
	return hi - lo, nil
}
