// Package diffusion implements forward information-propagation models
// (Independent Cascade and Linear Threshold) and Monte-Carlo estimators
// for influence spread and community benefit.
//
// The forward simulators are the ground truth against which the RIC
// sampling machinery is validated, and they power the paper's Fig. 8
// ratio measurements, which estimate c(S) and ν(S) by Monte Carlo.
package diffusion

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"imc/internal/community"
	"imc/internal/graph"
	"imc/internal/xrand"
)

// ctxPollBatch is how many cascades a worker simulates between
// cooperative ctx.Err() polls. Batch-boundary polling keeps the
// cancellation check out of the per-cascade hot path while bounding
// cancellation latency to ~1k iterations per worker.
const ctxPollBatch = 1024

// Model selects the propagation model.
type Model int

const (
	// IC is the Independent Cascade model (the paper's primary model).
	IC Model = iota + 1
	// LT is the Linear Threshold model (the paper's noted extension).
	LT
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case IC:
		return "IC"
	case LT:
		return "LT"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Simulator runs forward cascades over one graph, reusing scratch
// buffers between runs. It is NOT safe for concurrent use; create one
// per goroutine.
type Simulator struct {
	g     *graph.Graph
	model Model

	active []bool
	queue  []graph.NodeID
	// LT scratch: accumulated incoming active weight and threshold draw.
	ltWeight []float64
	ltThresh []float64
}

// NewSimulator returns a simulator for g under the given model.
func NewSimulator(g *graph.Graph, model Model) *Simulator {
	n := g.NumNodes()
	s := &Simulator{
		g:      g,
		model:  model,
		active: make([]bool, n),
		queue:  make([]graph.NodeID, 0, n),
	}
	if model == LT {
		s.ltWeight = make([]float64, n)
		s.ltThresh = make([]float64, n)
	}
	return s
}

// Run simulates one cascade from seeds and returns the set of activated
// nodes as a reusable boolean slice (valid until the next Run) plus the
// activation count.
//
//imc:hotpath
func (s *Simulator) Run(seeds []graph.NodeID, rng *xrand.RNG) ([]bool, int) {
	switch s.model {
	case LT:
		return s.runLT(seeds, rng)
	default:
		return s.runIC(seeds, rng)
	}
}

//imc:hotpath
func (s *Simulator) runIC(seeds []graph.NodeID, rng *xrand.RNG) ([]bool, int) {
	// Hoist the scratch state into locals: the scan bound becomes a
	// local length (one bounds proof, no per-iteration field reload
	// through s), and the weights re-slice to the neighbor count so
	// ws[i] checks once per edge list, not per edge.
	active := s.active
	for i := range active {
		active[i] = false
	}
	queue := s.queue[:0]
	count := 0
	for _, u := range seeds {
		if u < 0 || int(u) >= s.g.NumNodes() || active[u] {
			continue
		}
		active[u] = true
		count++
		queue = append(queue, u)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		tos, ws := s.g.OutNeighbors(u)
		ws = ws[:len(tos)]
		for i, v := range tos {
			if active[v] {
				continue
			}
			if rng.Bernoulli(ws[i]) {
				active[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	s.queue = queue
	return active, count
}

//imc:hotpath
func (s *Simulator) runLT(seeds []graph.NodeID, rng *xrand.RNG) ([]bool, int) {
	n := s.g.NumNodes()
	// Re-slice the per-node state to the loop bound once: the reset scan
	// and every frontier update below then index with a single shared
	// bounds proof instead of three unrelated field loads per node.
	active := s.active[:n]
	ltWeight := s.ltWeight[:n]
	ltThresh := s.ltThresh[:n]
	for i := 0; i < n; i++ {
		active[i] = false
		ltWeight[i] = 0
		ltThresh[i] = rng.Float64()
	}
	queue := s.queue[:0]
	count := 0
	for _, u := range seeds {
		if u < 0 || int(u) >= n || active[u] {
			continue
		}
		active[u] = true
		count++
		queue = append(queue, u)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		tos, ws := s.g.OutNeighbors(u)
		ws = ws[:len(tos)]
		for i, v := range tos {
			if active[v] {
				continue
			}
			ltWeight[v] += ws[i]
			if ltWeight[v] >= ltThresh[v] {
				active[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	s.queue = queue
	return active, count
}

// TraceRound is one discrete round of a traced cascade.
type TraceRound struct {
	// Round numbers rounds from 0 (the seeding round).
	Round int
	// Activated lists the nodes newly activated this round, ascending.
	Activated []graph.NodeID
}

// Trace simulates one IC cascade and records which nodes activate in
// which round — the discrete-round semantics of the model made
// observable for debugging, teaching, and the examples' narrations.
func Trace(g *graph.Graph, seeds []graph.NodeID, rng *xrand.RNG) []TraceRound {
	n := g.NumNodes()
	active := make([]bool, n)
	var rounds []TraceRound
	frontier := make([]graph.NodeID, 0, len(seeds))
	for _, u := range seeds {
		if u >= 0 && int(u) < n && !active[u] {
			active[u] = true
			frontier = append(frontier, u)
		}
	}
	sortNodes(frontier)
	round := 0
	for len(frontier) > 0 {
		rounds = append(rounds, TraceRound{Round: round, Activated: append([]graph.NodeID(nil), frontier...)})
		// The next frontier is rarely larger than the current one, so
		// its length is the natural starting capacity.
		next := make([]graph.NodeID, 0, len(frontier))
		for _, u := range frontier {
			tos, ws := g.OutNeighbors(u)
			for i, v := range tos {
				if !active[v] && rng.Bernoulli(ws[i]) {
					active[v] = true
					next = append(next, v)
				}
			}
		}
		sortNodes(next)
		frontier = next
		round++
	}
	return rounds
}

func sortNodes(s []graph.NodeID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// CommunityBenefit scores an activation outcome against a partition:
// the sum of b_i over communities with at least h_i active members.
//
//imc:hotpath
func CommunityBenefit(p *community.Partition, active []bool) float64 {
	benefit := 0.0
	for i := 0; i < p.NumCommunities(); i++ {
		c := p.Community(i)
		hits := 0
		for _, u := range c.Members {
			if active[u] {
				hits++
				if hits >= c.Threshold {
					break
				}
			}
		}
		if hits >= c.Threshold {
			benefit += c.Benefit
		}
	}
	return benefit
}

// FractionalBenefit scores ν-style fractional credit: Σ b_i · min(
// active_i/h_i, 1). This is the Monte-Carlo estimator of the paper's
// ν(S) upper-bound function (eq. 6), used in Fig. 8.
//
//imc:hotpath
func FractionalBenefit(p *community.Partition, active []bool) float64 {
	total := 0.0
	for i := 0; i < p.NumCommunities(); i++ {
		c := p.Community(i)
		hits := 0
		for _, u := range c.Members {
			if active[u] {
				hits++
			}
		}
		frac := float64(hits) / float64(c.Threshold)
		if frac > 1 {
			frac = 1
		}
		total += c.Benefit * frac
	}
	return total
}

// MCOptions configures Monte-Carlo estimation.
type MCOptions struct {
	// Iterations is the number of cascades to average. Must be ≥ 1.
	Iterations int
	// Seed drives the whole estimate deterministically.
	Seed uint64
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// Model selects IC (default) or LT.
	Model Model
}

func (o MCOptions) normalized() (MCOptions, error) {
	if o.Iterations < 1 {
		return o, errors.New("diffusion: Iterations must be ≥ 1")
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Model == 0 {
		o.Model = IC
	}
	return o, nil
}

// EstimateSpread Monte-Carlo-estimates the expected number of activated
// nodes for the seed set.
func EstimateSpread(g *graph.Graph, seeds []graph.NodeID, opts MCOptions) (float64, error) {
	return EstimateSpreadCtx(context.Background(), g, seeds, opts)
}

// EstimateSpreadCtx is EstimateSpread with cooperative cancellation:
// workers poll ctx between iteration batches.
//
//imc:longrun
func EstimateSpreadCtx(ctx context.Context, g *graph.Graph, seeds []graph.NodeID, opts MCOptions) (float64, error) {
	return mcAverageCtx(ctx, g, seeds, opts, func(active []bool, count int) float64 {
		return float64(count)
	})
}

// EstimateBenefit Monte-Carlo-estimates c(S): the expected benefit of
// influenced communities.
func EstimateBenefit(g *graph.Graph, p *community.Partition, seeds []graph.NodeID, opts MCOptions) (float64, error) {
	return EstimateBenefitCtx(context.Background(), g, p, seeds, opts)
}

// EstimateBenefitCtx is EstimateBenefit with cooperative cancellation:
// workers poll ctx between iteration batches.
//
//imc:longrun
func EstimateBenefitCtx(ctx context.Context, g *graph.Graph, p *community.Partition, seeds []graph.NodeID, opts MCOptions) (float64, error) {
	return mcAverageCtx(ctx, g, seeds, opts, func(active []bool, count int) float64 {
		return CommunityBenefit(p, active)
	})
}

// EstimateFractionalBenefit Monte-Carlo-estimates ν(S) (eq. 6).
func EstimateFractionalBenefit(g *graph.Graph, p *community.Partition, seeds []graph.NodeID, opts MCOptions) (float64, error) {
	return EstimateFractionalBenefitCtx(context.Background(), g, p, seeds, opts)
}

// EstimateFractionalBenefitCtx is EstimateFractionalBenefit with
// cooperative cancellation: workers poll ctx between iteration batches.
//
//imc:longrun
func EstimateFractionalBenefitCtx(ctx context.Context, g *graph.Graph, p *community.Partition, seeds []graph.NodeID, opts MCOptions) (float64, error) {
	return mcAverageCtx(ctx, g, seeds, opts, func(active []bool, count int) float64 {
		return FractionalBenefit(p, active)
	})
}

// mcAverageCtx fans iterations out over a bounded worker pool. Stream i
// of the seed RNG drives iteration i, so results are independent of
// scheduling; the ctx polls never touch the PRNG, so a completed run is
// byte-identical with or without a live context. On cancellation the
// partial sums are discarded and the ctx error returned.
//
//imc:longrun
func mcAverageCtx(ctx context.Context, g *graph.Graph, seeds []graph.NodeID, opts MCOptions, score func(active []bool, count int) float64) (float64, error) {
	opts, err := opts.normalized()
	if err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	root := xrand.New(opts.Seed)
	workers := opts.Workers
	if workers > opts.Iterations {
		workers = opts.Iterations
	}
	partial := make([]mcPartial, workers)
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sim := NewSimulator(g, opts.Model)
			sum := 0.0
			var rng xrand.RNG
			ran := 0
			for it := w; it < opts.Iterations; it += workers {
				if ran&(ctxPollBatch-1) == 0 {
					if cerr := ctx.Err(); cerr != nil {
						errOnce.Do(func() { firstErr = cerr })
						return
					}
				}
				ran++
				root.SplitInto(uint64(it), &rng)
				active, count := sim.Run(seeds, &rng)
				sum += score(active, count)
			}
			partial[w].sum = sum
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	total := 0.0
	for _, s := range partial {
		total += s.sum
	}
	return total / float64(opts.Iterations), nil
}

// mcPartial is one worker's slot in the shared partial-sum array,
// padded out to a full cache line: adjacent float64 slots would share a
// line and every worker's final store would invalidate its neighbors'
// copies (the falseshare contract verifies the 64-byte size).
//
//imc:padded
type mcPartial struct {
	sum float64
	_   [56]byte
}
