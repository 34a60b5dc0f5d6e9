package ric

import (
	"bufio"
	"fmt"
	"io"
)

// Shard-range serialization: the distributed runtime (internal/shard)
// partitions the global sample sequence [0, Θ) into disjoint ranges,
// has each worker generate its range in an offset pool, and ships the
// ranges back to the coordinator, which splices them in order into one
// offset-0 pool. Because sample i is always drawn from PRNG stream i,
// the spliced pool is byte-identical to in-process generation no matter
// how the ranges were cut.
//
// Layout (little endian), format IMCS v1:
//
//	magic    [4]byte  "IMCS"
//	version  uint32   (1)
//	seed     uint64   ┐
//	model    uint32   │ identity block, same as IMCP v2
//	wdigest  uint64   │ (seed, model, weight digest, n, r)
//	n        uint64   │
//	r        uint64   ┘
//	lo       uint64   first global sample index in the range
//	hi       uint64   one past the last global sample index
//	per sample (hi-lo records): same body as IMCP v2
//
// The identity block and per-sample codec are shared with serialize.go,
// so the formats cannot drift; the only difference is the [lo, hi)
// range replacing IMCP's implicit [0, samples) prefix.

var shardMagic = [4]byte{'I', 'M', 'C', 'S'}

const shardVersion = 1

// ExportRange serializes global samples [lo, hi) of the pool in IMCS
// v1. The range must lie inside the pool's generated span
// [Offset(), Offset()+NumSamples()); lo == hi writes a valid empty
// range (a worker acknowledging a zero-width assignment).
func (p *Pool) ExportRange(w io.Writer, lo, hi int) error {
	if lo > hi {
		return fmt.Errorf("ric: ExportRange bounds inverted: [%d, %d)", lo, hi)
	}
	if lo < p.offset || hi > p.offset+len(p.samples) {
		return fmt.Errorf("ric: ExportRange [%d, %d) outside the pool's generated span [%d, %d)",
			lo, hi, p.offset, p.offset+len(p.samples))
	}
	enc := &poolEncoder{bw: bufio.NewWriterSize(w, 1<<20)}
	if _, err := enc.bw.Write(shardMagic[:]); err != nil {
		return fmt.Errorf("ric: write shard magic: %w", err)
	}
	if err := enc.put32(shardVersion); err != nil {
		return err
	}
	if err := p.encodeIdentity(enc); err != nil {
		return err
	}
	if err := enc.put64(uint64(lo)); err != nil {
		return err
	}
	if err := enc.put64(uint64(hi)); err != nil {
		return err
	}
	covers := p.SampleCovers()
	for i := lo - p.offset; i < hi-p.offset; i++ {
		if err := enc.encodeSample(p.samples[i], covers, i); err != nil {
			return err
		}
	}
	if err := enc.bw.Flush(); err != nil {
		return fmt.Errorf("ric: flush shard export: %w", err)
	}
	return nil
}

// ImportRange appends a shard export of global samples [next, hi) to
// the pool, where next is the pool's next global sample index
// Offset()+NumSamples(). The export's identity block must match the
// pool (same seed, model, weighted graph, partition shape), and its
// declared range must be exactly [next, hi) — ranges splice in order,
// gap-free, and never past the caller's target, so the resulting
// sample sequence is exactly what GenerateCtx would have produced.
// Decoding is as defensive as ReadInto: every count is validated, and
// the stream must end exactly at the last declared sample. It is also
// atomic: the range is staged in full and folded in only after the
// stream's end is verified, so on any error the pool is left exactly
// as it was.
func (p *Pool) ImportRange(r io.Reader, hi int) error {
	d, lo, end, err := p.openRange(r)
	if err != nil {
		return err
	}
	if end != hi {
		return fmt.Errorf("ric: shard export ends at sample %d, want %d", end, hi)
	}
	raws, err := p.decodeSamples(d, lo, hi)
	if err != nil {
		return err
	}
	p.fold(raws)
	return nil
}

// openRange validates an IMCS stream's header — magic, version,
// identity block, range — and returns the decoder positioned at the
// first record, with the declared range [lo, hi). lo must be the pool's
// next global sample index.
func (p *Pool) openRange(r io.Reader) (*poolDecoder, int, int, error) {
	d := newPoolDecoder(r, "shard export")
	magic, err := d.magic()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("ric: shard export truncated reading magic: %w", err)
	}
	if magic != shardMagic {
		return nil, 0, 0, fmt.Errorf("ric: bad shard magic %q", magic)
	}
	version, err := d.get32("version")
	if err != nil {
		return nil, 0, 0, err
	}
	if version != shardVersion {
		return nil, 0, 0, fmt.Errorf("ric: unsupported shard export version %d (want %d)", version, shardVersion)
	}
	if err := p.checkIdentity(d); err != nil {
		return nil, 0, 0, err
	}
	lo64, err := d.get64("range lo")
	if err != nil {
		return nil, 0, 0, err
	}
	hi64, err := d.get64("range hi")
	if err != nil {
		return nil, 0, 0, err
	}
	if lo64 > hi64 || hi64 >= 1<<31 {
		return nil, 0, 0, fmt.Errorf("ric: shard export range [%d, %d) invalid", lo64, hi64)
	}
	lo := int(lo64)
	if next := p.offset + len(p.samples); lo != next {
		return nil, 0, 0, fmt.Errorf("ric: shard export starts at sample %d but the pool's next sample is %d — ranges must splice in order, gap-free", lo, next)
	}
	return d, lo, int(hi64), nil
}
