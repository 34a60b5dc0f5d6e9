package maxr

import (
	"context"
	"math"

	"imc/internal/ric"
)

// MB combines MAF and BT (paper §IV-C "Combining with MAF"): run both,
// keep the seed set influencing more samples. For thresholds ≤ 2 the
// combination achieves Θ(√((1−1/e)/r)), tight to the problem's
// inapproximability under the exponential time hypothesis (Theorem 5).
type MB struct {
	// MAF configures the MAF half.
	MAF MAF
	// BT configures the BT half.
	BT BT
}

var _ Solver = MB{}

// Name implements Solver.
func (MB) Name() string { return "MB" }

// Guarantee implements Solver: √((1−1/e)·⌊k/2⌋ / (k·r)) — Theorem 5's
// bound before the ⌊k/2⌋/k = Θ(1) simplification.
func (m MB) Guarantee(pool *ric.Pool, k int) float64 {
	r := pool.Partition().NumCommunities()
	if r == 0 || k == 0 {
		return 0
	}
	return math.Sqrt((1 - 1/math.E) * float64(k/2) / (float64(k) * float64(r)))
}

// SolveCtx implements Solver: ctx reaches both halves.
//
//imc:longrun
func (m MB) SolveCtx(ctx context.Context, pool *ric.Pool, k int) (Result, error) {
	if err := validate(pool, k); err != nil {
		return Result{}, err
	}
	rMAF, err := m.MAF.SolveCtx(ctx, pool, k)
	if err != nil {
		return Result{}, err
	}
	rBT, err := m.BT.SolveCtx(ctx, pool, k)
	if err != nil {
		return Result{}, err
	}
	if rBT.Coverage > rMAF.Coverage {
		return rBT, nil
	}
	return rMAF, nil
}
