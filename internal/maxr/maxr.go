// Package maxr implements the paper's Section IV: approximation
// algorithms for the MAXR problem — given a pool R of RIC samples and a
// budget k, pick k seed nodes maximizing the number of influenced
// samples (equivalently ĉ_R, which is non-submodular, Lemma 2).
//
// Four solvers are provided, mirroring the paper:
//
//   - UBG  — Upper-Bound Greedy / sandwich approximation (Alg. 2):
//     greedy on the submodular upper bound ν_R plus greedy on ĉ_R,
//     keeping the better seed set under ĉ_R.
//   - MAF  — Most-Appearance-First (Alg. 3): activate the most frequent
//     communities (S1) or the most frequent nodes (S2), whichever
//     influences more samples. Guarantee ⌊k/h⌋/r.
//   - BT   — Bounded-Threshold (Alg. 4): for every candidate root u,
//     reduce the samples u touches to threshold ≤ h−1 and solve the
//     remainder; guarantee (1−1/e)/k^(d−1) for thresholds ≤ d.
//   - MB   — MAF ∨ BT: the combination achieving the
//     Θ(√((1−1/e)/r)) guarantee that is tight to the problem's
//     inapproximability (Theorem 5).
package maxr

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"imc/internal/graph"
	"imc/internal/ric"
)

// ErrEmptyPool is returned when solving against a pool with no samples.
var ErrEmptyPool = errors.New("maxr: pool has no samples")

// ctxPollBatch is how many candidate evaluations (greedy marginals, CELF
// pops, BT roots) a solver loop runs between cooperative ctx.Err()
// polls. Batch-boundary polling keeps the check off the hot path and —
// because it never touches solver state — leaves completed runs
// byte-identical to the ctx-free path.
const ctxPollBatch = 1024

// Result is a solved MAXR instance.
type Result struct {
	// Seeds is the selected seed set, |Seeds| ≤ k.
	Seeds []graph.NodeID
	// Coverage is the number of pool samples Seeds influences.
	Coverage int
	// CHat is ĉ_R(Seeds) = (b/|R|)·Coverage.
	CHat float64
}

// Solver is one MAXR approximation algorithm.
type Solver interface {
	// Name identifies the algorithm ("UBG", "MAF", ...).
	Name() string
	// Guarantee returns the paper's approximation ratio α for this
	// solver on this instance (used by the IMCAF sample bound Ψ).
	Guarantee(pool *ric.Pool, k int) float64
	// Solve picks up to k seeds maximizing influenced samples.
	Solve(pool *ric.Pool, k int) (Result, error)
}

// CtxSolver is a Solver whose selection loop supports cooperative
// cancellation. All solvers in this package implement it; the interface
// exists so SolveWithContext can degrade gracefully for third-party
// Solver implementations.
type CtxSolver interface {
	Solver
	// SolveCtx is Solve with ctx polled at batch boundaries. A completed
	// call returns exactly what Solve would.
	SolveCtx(ctx context.Context, pool *ric.Pool, k int) (Result, error)
}

// SolveWithContext dispatches to s.SolveCtx when the solver supports
// cancellation, and otherwise performs one up-front ctx check before the
// uninterruptible s.Solve.
//
//imc:longrun
func SolveWithContext(ctx context.Context, s Solver, pool *ric.Pool, k int) (Result, error) {
	if cs, ok := s.(CtxSolver); ok {
		return cs.SolveCtx(ctx, pool, k)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return s.Solve(pool, k)
}

func validate(pool *ric.Pool, k int) error {
	if pool.NumSamples() == 0 {
		return ErrEmptyPool
	}
	if k < 1 {
		return fmt.Errorf("maxr: budget k=%d must be ≥ 1", k)
	}
	return nil
}

// finalize packages a seed set into a Result.
func finalize(pool *ric.Pool, seeds []graph.NodeID) Result {
	cov := pool.CoverageCount(seeds)
	return Result{
		Seeds:    seeds,
		Coverage: cov,
		CHat:     pool.Scale() * float64(cov),
	}
}

// candidates returns all nodes that touch at least one sample, in
// descending touch-count order (ties by node ID). Nodes outside this
// set can never increase coverage.
func candidates(pool *ric.Pool) []graph.NodeID {
	n := pool.Graph().NumNodes()
	keys := make([]uint64, 0, n/4+1)
	for v := 0; v < n; v++ {
		if t := pool.TouchCount(graph.NodeID(v)); t > 0 {
			keys = append(keys, rankKey(t, graph.NodeID(v)))
		}
	}
	slices.Sort(keys)
	out := make([]graph.NodeID, len(keys))
	for i, key := range keys {
		out[i] = rankNode(key)
	}
	return out
}

// rankKey packs the order candidates and BT instances rank nodes by —
// count descending, then node ascending — into one integer, so a plain
// slices.Sort puts a key array in that order without a comparator.
func rankKey(count int, v graph.NodeID) uint64 {
	return uint64(^uint32(count))<<32 | uint64(uint32(v))
}

// rankNode and rankCount unpack a rankKey.
func rankNode(key uint64) graph.NodeID { return graph.NodeID(uint32(key)) }

func rankCount(key uint64) int { return int(^uint32(key >> 32)) }

// padSeeds fills seeds up to k with unused candidate nodes (then any
// remaining node IDs) so solvers always return a full budget when the
// graph allows it.
func padSeeds(pool *ric.Pool, seeds []graph.NodeID, k int) []graph.NodeID {
	if len(seeds) >= k {
		return seeds[:k]
	}
	used := make(map[graph.NodeID]struct{}, len(seeds))
	for _, s := range seeds {
		used[s] = struct{}{}
	}
	for _, v := range candidates(pool) {
		if len(seeds) >= k {
			return seeds
		}
		if _, ok := used[v]; !ok {
			seeds = append(seeds, v)
			used[v] = struct{}{}
		}
	}
	for v := 0; v < pool.Graph().NumNodes() && len(seeds) < k; v++ {
		if _, ok := used[graph.NodeID(v)]; !ok {
			seeds = append(seeds, graph.NodeID(v))
			used[graph.NodeID(v)] = struct{}{}
		}
	}
	return seeds
}
