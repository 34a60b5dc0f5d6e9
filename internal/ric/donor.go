package ric

import (
	"fmt"
	"io"

	"imc/internal/community"
	"imc/internal/graph"
)

// Donor holds a decoded pool snapshot so its samples can be spliced
// into a compatible growing pool without regenerating them — the
// mechanism behind the pool cache's incremental doubling. It keeps the
// samples staged exactly as the decoder left them, in the form
// GenerateCtx and ImportRange fold: a cache hit decodes the snapshot
// once, and each ExtendTo folds only the samples it adopts.
//
// Adoption is sound because generation is stream-indexed: sample i of
// any pool with the same (graph, weights, partition, model, seed) is
// identical no matter which process drew it, so copying samples
// [cur, target) from the donor yields byte-for-byte the pool that
// GenerateCtx would have produced. The donor's identity is validated on
// every call.
type Donor struct {
	family
	raws []rawSample // immutable
}

// ReadDonor decodes a snapshot written by Pool.Save into a donor over
// (g, part), with the model and seed opts names. It validates exactly
// what ReadInto does — header, identity block, every record, the
// stream's end — and fails with the same errors; only offset-0 options
// are accepted, as IMCP records the sequence prefix.
func ReadDonor(g *graph.Graph, part *community.Partition, opts PoolOptions, r io.Reader) (*Donor, error) {
	fam, err := newFamily(g, part, opts)
	if err != nil {
		return nil, err
	}
	if fam.offset != 0 {
		return nil, fmt.Errorf("ric: ReadDonor requires offset 0, got stream offset %d", fam.offset)
	}
	raws, err := fam.readSnapshot(r)
	if err != nil {
		return nil, err
	}
	return &Donor{family: fam, raws: raws}, nil
}

// NumSamples returns how many samples the donor can supply.
func (d *Donor) NumSamples() int { return len(d.raws) }

// ExtendTo appends donor samples to p until p holds min(target,
// donor size) samples, and reports how many were adopted. The target
// pool must be over the same graph and partition objects with the same
// seed and model — anything else would splice samples from a different
// stream family — and must not be ahead of the donor mid-stream in a
// way that breaks contiguity (p's next sample index is adopted first).
func (d *Donor) ExtendTo(p *Pool, target int) (int, error) {
	if p.g != d.g || p.part != d.part {
		return 0, fmt.Errorf("ric: donor and pool cover different graph or partition objects")
	}
	if p.seed != d.seed {
		return 0, fmt.Errorf("ric: donor seed %d does not match pool seed %d", d.seed, p.seed)
	}
	if p.model != d.model {
		return 0, fmt.Errorf("ric: donor model %v does not match pool model %v", d.model, p.model)
	}
	if p.offset != d.offset {
		return 0, fmt.Errorf("ric: donor stream offset %d does not match pool offset %d — local sample indexes would name different streams", d.offset, p.offset)
	}
	lo := len(p.samples)
	hi := min(target, len(d.raws))
	if hi <= lo {
		return 0, nil
	}
	p.fold(d.raws[lo:hi])
	return hi - lo, nil
}
