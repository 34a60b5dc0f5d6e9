package ris

import (
	"context"
	"math"

	"imc/internal/clock"
	"imc/internal/graph"
	"imc/internal/maxr"
)

// SolveIMMCtx picks k seeds with the IMM algorithm (Tang, Xiao & Shi,
// SIGMOD 2014): phase 1 ("sampling") estimates a lower bound LB on the
// optimal spread by geometric search with a martingale-based test,
// phase 2 ("node selection") sizes the RR pool as θ = λ*/LB and runs
// greedy max coverage once. IMM is the second state-of-the-art IM
// framework the paper cites (alongside the SSA-style SolveCtx); having
// both lets the harness cross-check the IM baseline.
//
// Guarantee: 1 − 1/e − ε with probability ≥ 1 − δ (ℓ is derived from
// Delta as ℓ = max(ln(1/δ)/ln n, 0.1)).
//
// ctx is threaded into both phases' RR-set generation and checked
// between geometric-search iterations.
//
//imc:longrun
func SolveIMMCtx(ctx context.Context, g *graph.Graph, opts Options) (Solution, error) {
	opts, pool, err := newPool(g, opts)
	if err != nil {
		return Solution{}, err
	}
	now := clock.OrWall(opts.Clock)
	start := now()

	var (
		n      = float64(g.NumNodes())
		k      = opts.K
		eps    = opts.Eps
		ell    = math.Max(math.Log(1/opts.Delta)/math.Log(n), 0.1)
		logNK  = lnChooseFloat(n, float64(k))
		log2N  = math.Log2(n)
		lb     = 1.0
		epsP   = math.Sqrt2 * eps
		lambdP = (2 + 2*epsP/3) * (logNK + ell*math.Log(n) + math.Log(log2N)) * n / (epsP * epsP)
	)
	if log2N < 1 {
		log2N = 1
	}

	// Phase 1: geometric search for a lower bound on OPT.
	for i := 1; float64(i) <= log2N-1; i++ {
		if err := ctx.Err(); err != nil {
			return Solution{}, err
		}
		x := n / math.Pow(2, float64(i))
		thetaI := int(math.Ceil(lambdP / x))
		if thetaI > opts.MaxSamples {
			thetaI = opts.MaxSamples
		}
		if err := pool.EnsureCtx(ctx, thetaI); err != nil {
			return Solution{}, err
		}
		seeds, err := maxr.GreedyNuCtx(ctx, pool, k)
		if err != nil {
			return Solution{}, err
		}
		est := pool.CHat(seeds)
		if est >= (1+epsP)*x {
			lb = est / (1 + epsP)
			break
		}
		if pool.NumSamples() >= opts.MaxSamples {
			break
		}
	}

	// Phase 2: final pool size θ = λ*/LB.
	alpha := math.Sqrt(ell*math.Log(n) + math.Log(2))
	beta := math.Sqrt((1 - 1/math.E) * (logNK + ell*math.Log(n) + math.Log(2)))
	lambdaStar := 2 * n * (((1-1/math.E)*alpha + beta) * ((1-1/math.E)*alpha + beta)) / (eps * eps)
	theta := int(math.Ceil(lambdaStar / lb))
	if theta > opts.MaxSamples {
		theta = opts.MaxSamples
	}
	if err := pool.EnsureCtx(ctx, theta); err != nil {
		return Solution{}, err
	}
	seeds, err := maxr.GreedyNuCtx(ctx, pool, k)
	if err != nil {
		return Solution{}, err
	}
	return Solution{
		Seeds:          seeds,
		SpreadEstimate: pool.CHat(seeds),
		Samples:        pool.NumSamples(),
		Elapsed:        now().Sub(start),
	}, nil
}

// lnChooseFloat returns ln C(n, k) via log-gamma.
func lnChooseFloat(n, k float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	return lgammaPlus1(n) - lgammaPlus1(k) - lgammaPlus1(n-k)
}

// lgammaPlus1 returns ln Γ(x+1) = ln x!.
func lgammaPlus1(x float64) float64 {
	v, _ := math.Lgamma(x + 1)
	return v
}
