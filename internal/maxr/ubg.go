package maxr

import (
	"context"
	"math"

	"imc/internal/graph"
	"imc/internal/ric"
)

// UBG is the Upper-Bound Greedy / sandwich solver (paper Alg. 2). It
// greedily optimizes the submodular upper bound ν_R and, separately,
// ĉ_R itself, and keeps whichever seed set scores higher under ĉ_R.
// Theorem 2 gives the data-dependent guarantee
// (ĉ_R(S_ν)/ν_R(S_ν))·(1−1/e).
type UBG struct{}

var _ CtxSolver = UBG{}

// Name implements Solver.
func (UBG) Name() string { return "UBG" }

// Guarantee implements Solver. The data-dependent sandwich factor is
// only known post hoc (see core.Solution.SandwichRatio); for sample-size
// planning we use the nominal 1−1/e.
func (UBG) Guarantee(_ *ric.Pool, _ int) float64 { return 1 - 1/math.E }

// Solve implements Solver.
func (u UBG) Solve(pool *ric.Pool, k int) (Result, error) {
	return u.SolveCtx(context.Background(), pool, k)
}

// SolveCtx implements CtxSolver. The two greedy halves are
// independent — each keeps its own coverage State and only reads the
// pool — so they run concurrently, and SolveCtx returns once both have.
// Each polls ctx at batch boundaries; on failure the ν half's error
// wins, as it would if the halves ran in order.
//
//imc:longrun
func (UBG) SolveCtx(ctx context.Context, pool *ric.Pool, k int) (Result, error) {
	if err := validate(pool, k); err != nil {
		return Result{}, err
	}
	var (
		sC   []graph.NodeID
		errC error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		sC, errC = GreedyCHatCtx(ctx, pool, k)
	}()
	sNu, errNu := GreedyNuCtx(ctx, pool, k)
	<-done
	if errNu != nil {
		return Result{}, errNu
	}
	if errC != nil {
		return Result{}, errC
	}
	rNu := finalize(pool, sNu)
	rC := finalize(pool, sC)
	if rC.Coverage > rNu.Coverage {
		return rC, nil
	}
	return rNu, nil
}
