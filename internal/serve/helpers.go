package serve

import (
	"context"

	"imc/internal/diffusion"
	"imc/internal/expt"
	"imc/internal/graph"
	"imc/internal/maxr"
	"imc/internal/poolcache"
	"imc/internal/ric"
	"imc/internal/xrand"
)

// estimateBenefit Monte-Carlo-scores a seed set against an instance.
func estimateBenefit(ctx context.Context, inst *expt.Instance, seeds []graph.NodeID, iters int, seed uint64) (float64, error) {
	return diffusion.EstimateBenefitCtx(ctx, inst.G, inst.Part, seeds, diffusion.MCOptions{
		Iterations: iters,
		Seed:       seed ^ 0x9e3779b97f4a7c15,
	})
}

// estimateSpread Monte-Carlo-estimates raw activation count.
func estimateSpread(ctx context.Context, inst *expt.Instance, seeds []graph.NodeID, iters int, seed uint64) (float64, error) {
	return diffusion.EstimateSpreadCtx(ctx, inst.G, seeds, diffusion.MCOptions{
		Iterations: iters,
		Seed:       seed ^ 0x517cc1b727220a95,
	})
}

// traceCascade runs one traced IC cascade on an instance.
func traceCascade(inst *expt.Instance, seeds []graph.NodeID, seed uint64) []diffusion.TraceRound {
	return diffusion.Trace(inst.G, seeds, xrand.New(seed^0x2545f4914f6cdd1d))
}

// solveBudgeted runs the cost-aware solver over a fresh pool and
// Monte-Carlo-scores the pick. Sampling and scoring — the dominant
// costs — are ctx-aware; the greedy selection between them runs on an
// already-bounded pool and gets one up-front check. The cache session
// (nil-safe) donates cached samples into the pool and stores the grown
// pool back — best-effort on both sides, and byte-identical to cold
// sampling because generation is stream-indexed.
func solveBudgeted(ctx context.Context, inst *expt.Instance, budget, costUnit float64, samples int, seed uint64, sess *poolcache.Session) ([]graph.NodeID, float64, float64, error) {
	pool, err := ric.NewPool(inst.G, inst.Part, ric.PoolOptions{Seed: seed})
	if err != nil {
		return nil, 0, 0, err
	}
	if err := sess.Grow(ctx, pool, samples, nil); err != nil {
		return nil, 0, 0, err
	}
	cost := maxr.UniformCost
	if costUnit > 0 {
		cost = maxr.DegreeCost(inst.G, costUnit)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	res, err := maxr.SolveBudgeted(pool, cost, budget)
	if err != nil {
		return nil, 0, 0, err
	}
	benefit, err := estimateBenefit(ctx, inst, res.Seeds, 2000, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	return res.Seeds, maxr.TotalCost(res.Seeds, cost), benefit, nil
}
