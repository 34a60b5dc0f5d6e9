package ric

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/xrand"
)

// ctxPollBatch is how many samples a worker draws between cooperative
// ctx.Err() polls. Polling per batch — never per node — keeps the
// cancellation check off the sampling hot path; a poll costs one atomic
// load, so a batch of 1024 makes the overhead unmeasurable while still
// bounding cancellation latency to ~1k samples per worker.
const ctxPollBatch = 1024

// Pool is a growing collection R of RIC samples together with the
// inverted cover index (node → samples it touches, with member masks)
// that every MAXR solver consumes.
//
// Generation is deterministic in the pool's seed: sample i is always
// drawn from PRNG stream i, no matter how many workers participate, so
// doubling the pool extends — never reshuffles — the sample sequence.
//
// A pool with a non-zero Offset is a shard: its local sample j is drawn
// from global stream Offset+j, so the union of disjoint shards over
// [0, Θ) is byte-identical to one pool generating streams 0..Θ-1 —
// the property the distributed runtime (internal/shard) rides on.
type Pool struct {
	family
	root    *xrand.RNG // immutable
	workers int        // immutable

	// words is W, the width of every mask in the index: the largest
	// natural width ⌈|C|/64⌉ over the partition's communities, fixed at
	// NewPool so every index run has one stride.
	words int // immutable

	// The sample state is single-writer by contract — fold (fed by
	// GenerateCtx, ReadInto, FoldRange and Donor.ExtendTo) owns it
	// exclusively, then readers share it frozen — so it carries no
	// guard comment.
	//
	// The inverted index is pointer-free per entry: node v's run is
	// ids[v] (the samples v touches, ascending) and the parallel
	// masks[v], W words per entry, each zero-padded past its sample's
	// natural width. The GC traces two slice headers per node, not one
	// per entry.
	samples  []Sample
	ids      [][]int32
	masks    [][]uint64
	commFreq []int // samples per source community
}

// PoolOptions configures pool construction.
type PoolOptions struct {
	// Model selects IC (default) or LT reverse sampling.
	Model diffusion.Model
	// Seed drives all sample randomness.
	Seed uint64
	// Offset is the pool's global stream offset: local sample j is drawn
	// from PRNG stream Offset+j. Zero (the default) builds an ordinary
	// prefix pool; a positive offset builds a shard whose sample
	// sequence is the [Offset, …) slice of the full pool's, letting
	// disjoint ranges be generated by different processes and later
	// spliced back together byte-identically (ExportRange/ImportRange).
	Offset int
	// Workers bounds generation parallelism; 0 means GOMAXPROCS.
	Workers int
}

// family is what fixes a pool's sample sequence: local sample j of
// any pool over the same graph and partition objects, model, seed and
// offset is drawn from the same PRNG stream over the same instance, so
// it is the same sample. Pool and Donor both carry one, and the
// decoders validate a stream's identity block against it.
type family struct {
	g      *graph.Graph         // immutable
	part   *community.Partition // immutable
	seed   uint64               // immutable
	offset int                  // immutable
	model  diffusion.Model      // immutable
}

// newFamily validates opts against (g, part) and applies the model
// default.
func newFamily(g *graph.Graph, part *community.Partition, opts PoolOptions) (family, error) {
	if g.NumNodes() != part.NumNodes() {
		return family{}, fmt.Errorf("ric: graph has %d nodes but partition covers %d", g.NumNodes(), part.NumNodes())
	}
	if opts.Model == 0 {
		opts.Model = diffusion.IC
	}
	if opts.Offset < 0 {
		return family{}, fmt.Errorf("ric: pool offset %d must be ≥ 0", opts.Offset)
	}
	return family{g: g, part: part, seed: opts.Seed, offset: opts.Offset, model: opts.Model}, nil
}

// NewPool creates an empty pool over (g, part).
func NewPool(g *graph.Graph, part *community.Partition, opts PoolOptions) (*Pool, error) {
	fam, err := newFamily(g, part, opts)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	words := 1
	for c := 0; c < part.NumCommunities(); c++ {
		words = max(words, maskWords(len(part.Community(c).Members)))
	}
	return &Pool{
		family:   fam,
		root:     xrand.New(opts.Seed),
		workers:  workers,
		words:    words,
		ids:      make([][]int32, g.NumNodes()),
		masks:    make([][]uint64, g.NumNodes()),
		commFreq: make([]int, part.NumCommunities()),
	}, nil
}

// GenerateCtx draws count additional samples and folds them into the
// pool, polling ctx between sample batches. On cancellation the pool is
// left exactly as it was — no partial batch is folded in — and the
// polls never touch the PRNG streams.
//
//imc:longrun
func (p *Pool) GenerateCtx(ctx context.Context, count int) error {
	if count <= 0 {
		return errors.New("ric: sample count must be positive")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	base := len(p.samples)
	raws := make([]rawSample, count)
	workers := p.workers
	if workers > count {
		workers = count
	}
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
		// abort is the shared fast-fail flag: the first worker to hit an
		// error (or observe cancellation) raises it, and every other
		// worker checks it at the same batch boundary as the ctx poll, so
		// one failure stops the whole generation within ~ctxPollBatch
		// samples per worker instead of letting the survivors sample the
		// full count to completion. A completed (error-free) run never
		// observes the flag, so its output stays byte-identical.
		abort atomic.Bool
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		abort.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen, err := NewGenerator(p.g, p.part, p.model)
			if err != nil {
				fail(err)
				return
			}
			var rng xrand.RNG
			drawn := 0
			for i := w; i < count; i += workers {
				if drawn&(ctxPollBatch-1) == 0 {
					if abort.Load() {
						return
					}
					if cerr := ctx.Err(); cerr != nil {
						fail(cerr)
						return
					}
				}
				drawn++
				p.root.SplitInto(uint64(p.offset+base+i), &rng)
				raws[i] = gen.Generate(&rng)
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	p.fold(raws)
	return nil
}

// foldChunkMin is the fewest samples one fold chunk takes. A fold of
// fewer than 2·foldChunkMin samples runs on the calling goroutine: below
// that, starting workers and clearing a count array per chunk costs
// more than splitting the scatter saves.
const foldChunkMin = 256

// fold appends staged samples to the pool and indexes their covers —
// the one place sample state grows, shared by generation and decoding
// so both build the index the same way.
//
// It is a counting sort over contiguous chunks of raws, one chunk per
// pool worker: each chunk counts its entries per node, one pass over
// the nodes grows every touched run once to its post-fold length and
// turns the counts into each chunk's first slot in the run, then the
// chunks fill their slots. Chunk c's entries at a node land after
// those of chunks before it, so every run stays in sample order and
// the index is the same whatever the chunk count.
func (p *Pool) fold(raws []rawSample) {
	base := len(p.samples)
	// Grow the sample store to its exact post-fold length once, so the
	// chunks can store their samples in place (presize contract).
	if free := cap(p.samples) - base; free < len(raws) {
		grown := make([]Sample, base, base+len(raws))
		copy(grown, p.samples)
		p.samples = grown
	}
	p.samples = p.samples[:base+len(raws)]
	chunks := max(1, min(p.workers, len(raws)/foldChunkMin))
	// at[c][v] is chunk c's entry count at node v, and after the node
	// pass the slot in v's run where its next entry goes. Each chunk
	// has its own array, so no two chunks write one cache line.
	at := make([][]int32, chunks)
	for c := range at {
		at[c] = make([]int32, len(p.ids))
	}
	bounds := func(c int) (lo, hi int) {
		return c * len(raws) / chunks, (c + 1) * len(raws) / chunks
	}
	forChunks(chunks, func(c int) {
		lo, hi := bounds(c)
		cnt := at[c]
		for _, raw := range raws[lo:hi] {
			for _, v := range raw.coverNodes {
				cnt[v]++
			}
		}
	})
	w := p.words
	for v := range p.ids {
		n := len(p.ids[v])
		next := int32(n)
		for _, cnt := range at {
			a := cnt[v]
			cnt[v] = next
			next += a
		}
		if added := int(next) - n; added > 0 {
			p.ids[v] = slices.Grow(p.ids[v], added)[:n+added]
			p.masks[v] = slices.Grow(p.masks[v], added*w)[:(n+added)*w]
		}
	}
	forChunks(chunks, func(c int) {
		lo, hi := bounds(c)
		cur := at[c]
		for i, raw := range raws[lo:hi] {
			id := int32(base + lo + i)
			p.samples[id] = Sample{
				Comm:       raw.comm,
				Threshold:  raw.threshold,
				NumMembers: raw.numMembers,
				TouchCount: int32(len(raw.coverNodes)),
			}
			words := maskWords(int(raw.numMembers))
			bits := raw.coverBits
			for _, v := range raw.coverNodes {
				j := int(cur[v])
				cur[v]++
				p.ids[v][j] = id
				putMask(p.masks[v][j*w:(j+1)*w], bits[:words])
				bits = bits[words:]
			}
		}
	})
	for _, raw := range raws {
		p.commFreq[raw.comm]++
	}
}

// forChunks runs f(0), …, f(n−1) concurrently, f(0) on the calling
// goroutine, and returns once every call has.
func forChunks(n int, f func(c int)) {
	var wg sync.WaitGroup
	for c := 1; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f(c)
		}(c)
	}
	f(0)
	wg.Wait()
}

// putMask writes m into the W-word slot dst, zero-padding past m's
// natural width.
func putMask(dst, m []uint64) {
	for k := range dst {
		var word uint64
		if k < len(m) {
			word = m[k]
		}
		dst[k] = word
	}
}

// DoubleCtx doubles the pool size (the IMCAF stop-and-stare schedule),
// polling ctx between sample batches.
//
//imc:longrun
func (p *Pool) DoubleCtx(ctx context.Context) error {
	n := len(p.samples)
	if n == 0 {
		return errors.New("ric: cannot double an empty pool")
	}
	return p.GenerateCtx(ctx, n)
}

// EnsureCtx grows the pool to at least target samples, generating only
// the missing tail. A pool already at or past target is left untouched.
// Because sample i is always drawn from PRNG stream i, the resulting
// pool is byte-identical to one generated in any other step pattern —
// EnsureCtx is how cache-warmed pools and cold pools converge on the
// same sample sequence.
//
//imc:longrun
func (p *Pool) EnsureCtx(ctx context.Context, target int) error {
	if target <= len(p.samples) {
		return ctx.Err()
	}
	return p.GenerateCtx(ctx, target-len(p.samples))
}

// NumSamples returns |R|.
func (p *Pool) NumSamples() int { return len(p.samples) }

// Sample returns sample i's metadata.
func (p *Pool) Sample(i int) Sample { return p.samples[i] }

// Words returns W, the width in words of every mask the index holds:
// the largest ⌈|C|/64⌉ over the partition's communities (1 whenever
// every community has at most 64 members).
func (p *Pool) Words() int { return p.words }

// Entries returns node v's index run: the ids of the samples v touches,
// ascending, and the parallel word run whose j-th W-word window is v's
// member mask in sample ids[j]. Both alias pool storage; treat them as
// read-only.
func (p *Pool) Entries(v graph.NodeID) (ids []int32, masks []uint64) {
	return p.ids[v], p.masks[v]
}

// TouchCount returns the number of samples node v touches — MAF's
// node-frequency statistic.
func (p *Pool) TouchCount(v graph.NodeID) int { return len(p.ids[v]) }

// CommunityFrequency returns how many samples were sourced from
// community c — MAF's community-frequency statistic.
func (p *Pool) CommunityFrequency(c int) int { return p.commFreq[c] }

// Partition returns the community partition the pool samples against.
func (p *Pool) Partition() *community.Partition { return p.part }

// Graph returns the underlying social graph.
func (p *Pool) Graph() *graph.Graph { return p.g }

// Model returns the propagation model used for sampling.
func (p *Pool) Model() diffusion.Model { return p.model }

// Seed returns the seed the pool's PRNG streams derive from. Sample i
// is always drawn from stream i of this seed, so two pools with equal
// seeds over the same instance generate identical sample sequences —
// the property checkpoint/resume relies on to validate that a restored
// pool will extend, not fork, an interrupted run.
func (p *Pool) Seed() uint64 { return p.seed }

// Offset returns the pool's global stream offset: local sample j was
// drawn from PRNG stream Offset+j. Zero for ordinary prefix pools;
// positive for shard pools covering a later slice of the sequence.
func (p *Pool) Offset() int { return p.offset }

// State carries incremental coverage bookkeeping for one seed set over
// one pool: the union member-mask per touched sample. It is the shared
// substrate of every evaluator and greedy solver. Masks live in one
// flat arena, one W-word slot per touched sample in first-touch order.
// Slots are numbered like samples, so an int32 slot never overflows
// before an int32 sample id would.
type State struct {
	pool    *Pool
	off     []int32 // per sample: arena slot of its cover mask, -1 until touched
	count   []int32 // cached popcount of each cover mask, 0 until touched
	touched []int32 // samples with a cover mask, in first-touch order
	seeds   []graph.NodeID
	arena   []uint64
}

// stateArenaWords is the arena's initial capacity (8 KiB): enough for
// the masks of a thousand touched samples at W = 1 before the first
// doubling.
const stateArenaWords = 1024

// NewState returns an empty coverage state for the pool. touched gets
// its exact final capacity up front: a sample index is appended at most
// once (the append is guarded by off[i] < 0, which flips in the same
// branch), so the accumulator can never outgrow one entry per sample
// and Add never reallocates it.
func (p *Pool) NewState() *State {
	off := make([]int32, len(p.samples))
	for i := range off {
		off[i] = -1
	}
	return &State{
		pool:    p,
		off:     off,
		count:   make([]int32, len(p.samples)),
		touched: make([]int32, 0, len(p.samples)),
		arena:   make([]uint64, 0, min(len(p.samples)*p.words, stateArenaWords)),
	}
}

// Add incorporates seed v into the state. A newly touched sample's
// mask is appended to the arena; a touched one is ORed in place.
//
//imc:hotpath
func (s *State) Add(v graph.NodeID) {
	s.seeds = append(s.seeds, v)
	w := s.pool.words
	ids, masks := s.pool.ids[v], s.pool.masks[v]
	for _, id := range ids {
		m := Mask(masks[:w:w])
		masks = masks[w:]
		o := s.off[id]
		if o < 0 {
			s.off[id] = int32(len(s.touched))
			s.arena = append(s.arena, m...)
			s.count[id] = int32(m.OnesCount())
			s.touched = append(s.touched, id)
			continue
		}
		c := Mask(s.arena[int(o)*w:])
		m.OrInto(c)
		s.count[id] = int32(c[:w].OnesCount())
	}
}

// CoverCount returns |I_g(S)| for sample i under the current seed set.
func (s *State) CoverCount(i int32) int32 { return s.count[i] }

// NewBits returns how many members of sample i the W-word mask m
// covers that the current seed set does not — m's marginal member
// coverage.
func (s *State) NewBits(i int32, m Mask) int32 {
	if o := s.off[i]; o >= 0 {
		return int32(m.NewBitsOver(s.arena[int(o)*s.pool.words:]))
	}
	return int32(m.OnesCount())
}

// Seeds returns the seeds added so far (shared slice; read-only).
func (s *State) Seeds() []graph.NodeID { return s.seeds }

// Covered returns the current W-word member mask for sample i (nil if
// the seed set touches no member of that sample). The mask aliases the
// state's arena and is valid until the next Add.
func (s *State) Covered(i int32) Mask {
	o := int(s.off[i])
	if o < 0 {
		return nil
	}
	w := s.pool.words
	return s.arena[o*w : (o+1)*w]
}

// InfluencedCount returns the number of pool samples the current seed
// set influences (|I_g(S)| ≥ h_g).
func (s *State) InfluencedCount() int {
	count := 0
	for _, i := range s.touched {
		if s.count[i] >= s.pool.samples[i].Threshold {
			count++
		}
	}
	return count
}

// FractionalSum returns Σ_g min(|I_g(S)|/h_g, 1) over the pool.
func (s *State) FractionalSum() float64 {
	total := 0.0
	for _, i := range s.touched {
		frac := float64(s.count[i]) / float64(s.pool.samples[i].Threshold)
		if frac > 1 {
			frac = 1
		}
		total += frac
	}
	return total
}

// CoverView is the sample-major view of the inverted index in CSR
// form: sample i's covers are positions Start[i] ≤ k < Start[i+1], in
// ascending node order; cover k is node Nodes[k], whose mask is entry
// Entry[k] of that node's index run. The view is pointer-free apart
// from its reference to the pool's runs, and reflects the pool at call
// time; rebuild it after the pool grows.
type CoverView struct {
	Start []int
	Nodes []graph.NodeID
	Entry []int32
	masks [][]uint64
	words int
}

// Mask returns cover k's W-word member mask (read-only, aliases the
// pool's index).
func (c *CoverView) Mask(k int) Mask {
	at := int(c.Entry[k]) * c.words
	return c.masks[c.Nodes[k]][at : at+c.words]
}

// SampleCovers builds the sample → covering-nodes view of the inverted
// index: one counting pass (a sample's TouchCount is its number of
// index entries, so the offsets come from the samples alone) and one
// fill pass over the nodes in ascending order.
func (p *Pool) SampleCovers() *CoverView {
	start := make([]int, len(p.samples)+1)
	for i, smp := range p.samples {
		start[i+1] = start[i] + int(smp.TouchCount)
	}
	total := start[len(p.samples)]
	view := &CoverView{
		Start: start,
		Nodes: make([]graph.NodeID, total),
		Entry: make([]int32, total),
		masks: p.masks,
		words: p.words,
	}
	fill := make([]int, len(p.samples))
	copy(fill, start)
	for v, ids := range p.ids {
		for j, id := range ids {
			k := fill[id]
			fill[id]++
			view.Nodes[k] = graph.NodeID(v)
			view.Entry[k] = int32(j)
		}
	}
	return view
}

// CHat evaluates the paper's ĉ_R(S) = (b/|R|)·Σ X_g(S) for an explicit
// seed set.
func (p *Pool) CHat(seeds []graph.NodeID) float64 {
	if len(p.samples) == 0 {
		return 0
	}
	st := p.NewState()
	for _, v := range seeds {
		st.Add(v)
	}
	return p.scale() * float64(st.InfluencedCount())
}

// NuHat evaluates the submodular upper bound ν_R(S) (paper eq. 7).
func (p *Pool) NuHat(seeds []graph.NodeID) float64 {
	if len(p.samples) == 0 {
		return 0
	}
	st := p.NewState()
	for _, v := range seeds {
		st.Add(v)
	}
	return p.scale() * st.FractionalSum()
}

// CoverageCount returns the raw number of samples influenced by seeds.
func (p *Pool) CoverageCount(seeds []graph.NodeID) int {
	st := p.NewState()
	for _, v := range seeds {
		st.Add(v)
	}
	return st.InfluencedCount()
}

// scale is b/|R|: one influenced sample's contribution to ĉ_R.
func (p *Pool) scale() float64 {
	return p.part.TotalBenefit() / float64(len(p.samples))
}

// Scale exposes b/|R| for solvers that report benefits.
func (p *Pool) Scale() float64 { return p.scale() }
