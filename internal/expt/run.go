package expt

import (
	"context"
	"fmt"
	"time"

	"imc/internal/baselines"
	"imc/internal/clock"
	"imc/internal/core"
	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/maxr"
	"imc/internal/ris"
	"imc/internal/stats"
)

// Algorithm names accepted by RunAlg, matching the paper's legends.
// AlgUBGLS is the extension variant: UBG followed by 1-swap local
// search (not in the paper; exposed for ablations).
const (
	AlgUBG   = "UBG"
	AlgMAF   = "MAF"
	AlgMB    = "MB"
	AlgHBC   = "HBC"
	AlgKS    = "KS"
	AlgIM    = "IM"
	AlgUBGLS = "UBG+LS"
	AlgDD    = "DD"
)

// AllAlgorithms lists every algorithm in the paper's plotting order.
var AllAlgorithms = []string{AlgUBG, AlgMAF, AlgMB, AlgHBC, AlgKS, AlgIM}

// RunConfig tunes how algorithms are executed and evaluated.
type RunConfig struct {
	// Eps, Delta are the paper's ε = δ = 0.2 defaults.
	Eps, Delta float64
	// Seed drives the run; run i of Runs uses Seed+i.
	Seed uint64
	// Runs averages this many independent repetitions (paper: 10).
	Runs int
	// MaxSamples caps the IMCAF pool (default 1<<17).
	MaxSamples int
	// EvalTMax caps the benefit-evaluation sample budget (default 1<<17).
	EvalTMax int
	// BTMaxRoots caps BT's root scan inside MB (0 = all roots).
	BTMaxRoots int
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// Model selects the propagation model (IC default, LT extension).
	Model diffusion.Model
	// Now supplies timestamps for runtime reporting; nil means the real
	// wall clock. Tests pin it to make timing-labelled output
	// reproducible. Only reporting reads it — never sampling.
	Now clock.Func
	// Checkpoint, when non-nil, receives solver checkpoints at every
	// pool-growth boundary so long solves survive a process restart. It
	// only fires for the core-solver algorithms (UBG, UBG+LS, MAF, MB) —
	// the baselines run to completion or not at all — and requires
	// Runs == 1: a multi-run average has no single resumable pool.
	Checkpoint core.CheckpointFunc
	// Resume restarts a (single-run, core-solver) selection from a
	// checkpoint taken by Checkpoint. With identical Spec and seed the
	// resumed run returns the byte-identical seed set and benefit the
	// uninterrupted run would have.
	Resume *core.Checkpoint
	// Grow, when non-nil, supplies pool samples for the core-solver
	// algorithms in place of plain generation (see core.Options.Grow) —
	// the pool cache's entry point. Like Checkpoint it requires
	// Runs == 1: each repetition uses a different seed, so one grow
	// session cannot serve them all.
	Grow core.GrowFunc
}

func (c RunConfig) normalized() RunConfig {
	if c.Eps == 0 {
		c.Eps = 0.2
	}
	if c.Delta == 0 {
		c.Delta = 0.2
	}
	if c.Runs < 1 {
		c.Runs = 1
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 1 << 17
	}
	if c.EvalTMax <= 0 {
		c.EvalTMax = 1 << 17
	}
	if c.Model == 0 {
		c.Model = diffusion.IC
	}
	return c
}

// AlgResult is one algorithm's averaged outcome on one instance.
type AlgResult struct {
	// Alg names the algorithm.
	Alg string
	// Benefit is the expected benefit of influenced communities of the
	// selected seeds, averaged over runs (Dagum-estimated, as in the
	// paper's evaluation protocol).
	Benefit float64
	// BenefitCI95 is the 95% confidence half-width across runs (0 for a
	// single run).
	BenefitCI95 float64
	// Runtime is the mean wall-clock seed-selection time.
	Runtime time.Duration
	// SandwichRatio is the mean ĉ_R/ν̂_R of UBG runs (0 otherwise).
	SandwichRatio float64
	// Seeds is the seed set of the final run (reported for inspection;
	// the Benefit average is across runs).
	Seeds []graph.NodeID
}

// RunAlg executes one algorithm on an instance with budget k, averaging
// over cfg.Runs repetitions. Selection time is measured; seed quality
// is then scored with the same Dagum estimator for every algorithm so
// comparisons are apples-to-apples.
func RunAlg(inst *Instance, alg string, k int, cfg RunConfig) (AlgResult, error) {
	return RunAlgCtx(context.Background(), inst, alg, k, cfg)
}

// RunAlgCtx is RunAlg with cooperative cancellation: ctx is checked
// between repetitions and threaded through seed selection and benefit
// evaluation, so a cancelled run surfaces context.Canceled (wrapped,
// errors.Is-matchable) within one kernel batch.
//
//imc:longrun
func RunAlgCtx(ctx context.Context, inst *Instance, alg string, k int, cfg RunConfig) (AlgResult, error) {
	cfg = cfg.normalized()
	if (cfg.Checkpoint != nil || cfg.Resume != nil || cfg.Grow != nil) && cfg.Runs != 1 {
		return AlgResult{}, fmt.Errorf("expt: checkpoint/resume/grow requires Runs == 1, got %d", cfg.Runs)
	}
	out := AlgResult{Alg: alg}
	var acc stats.Running
	for run := 0; run < cfg.Runs; run++ {
		if err := ctx.Err(); err != nil {
			return AlgResult{}, fmt.Errorf("expt: %s run %d: %w", alg, run, err)
		}
		seedBase := cfg.Seed + uint64(run)*1_000_003
		seeds, elapsed, ratio, err := selectSeeds(ctx, inst, alg, k, cfg, seedBase)
		if err != nil {
			return AlgResult{}, fmt.Errorf("expt: %s run %d: %w", alg, run, err)
		}
		benefit, err := evaluateBenefit(ctx, inst, seeds, cfg, seedBase)
		if err != nil {
			return AlgResult{}, fmt.Errorf("expt: %s run %d eval: %w", alg, run, err)
		}
		acc.Add(benefit)
		out.Runtime += elapsed
		out.SandwichRatio += ratio
		out.Seeds = seeds
	}
	out.Benefit = acc.Mean()
	out.BenefitCI95 = acc.CI95()
	out.Runtime /= time.Duration(cfg.Runs)
	out.SandwichRatio /= float64(cfg.Runs)
	return out, nil
}

func selectSeeds(ctx context.Context, inst *Instance, alg string, k int, cfg RunConfig, seed uint64) ([]graph.NodeID, time.Duration, float64, error) {
	now := clock.OrWall(cfg.Now)
	opts := core.Options{
		K:          k,
		Eps:        cfg.Eps,
		Delta:      cfg.Delta,
		Seed:       seed,
		Workers:    cfg.Workers,
		MaxSamples: cfg.MaxSamples,
		Model:      cfg.Model,
		Clock:      cfg.Now,
		// Checkpoint/Resume reach only the core-solver branches below;
		// the baseline branches never consult opts, so a checkpointed
		// baseline job simply restarts from scratch (they are cheap).
		Checkpoint: cfg.Checkpoint,
		Resume:     cfg.Resume,
		Grow:       cfg.Grow,
	}
	switch alg {
	case AlgUBG:
		sol, err := core.SolveCtx(ctx, inst.G, inst.Part, maxr.UBG{}, opts)
		if err != nil {
			return nil, 0, 0, err
		}
		return sol.Seeds, sol.Elapsed, sol.SandwichRatio, nil
	case AlgUBGLS:
		sol, err := core.SolveCtx(ctx, inst.G, inst.Part, maxr.Refined{Base: maxr.UBG{}}, opts)
		if err != nil {
			return nil, 0, 0, err
		}
		return sol.Seeds, sol.Elapsed, sol.SandwichRatio, nil
	case AlgMAF:
		sol, err := core.SolveCtx(ctx, inst.G, inst.Part, maxr.MAF{Seed: seed}, opts)
		if err != nil {
			return nil, 0, 0, err
		}
		return sol.Seeds, sol.Elapsed, 0, nil
	case AlgMB:
		solver := maxr.MB{MAF: maxr.MAF{Seed: seed}, BT: maxr.BT{MaxRoots: cfg.BTMaxRoots}}
		sol, err := core.SolveCtx(ctx, inst.G, inst.Part, solver, opts)
		if err != nil {
			return nil, 0, 0, err
		}
		return sol.Seeds, sol.Elapsed, 0, nil
	case AlgHBC:
		start := now()
		seeds, err := baselines.HBC(inst.G, inst.Part, k)
		return seeds, now().Sub(start), 0, err
	case AlgKS:
		start := now()
		seeds, err := baselines.KS(inst.G, inst.Part, k)
		return seeds, now().Sub(start), 0, err
	case AlgDD:
		start := now()
		seeds, err := baselines.DegreeDiscount(inst.G, k, 0.01)
		return seeds, now().Sub(start), 0, err
	case AlgIM:
		start := now()
		seeds, err := baselines.IMCtx(ctx, inst.G, inst.Part, k, ris.Options{
			Eps:        cfg.Eps,
			Delta:      cfg.Delta,
			Seed:       seed,
			Workers:    cfg.Workers,
			MaxSamples: cfg.MaxSamples,
			Model:      cfg.Model,
			Clock:      cfg.Now,
		})
		return seeds, now().Sub(start), 0, err
	default:
		return nil, 0, 0, fmt.Errorf("unknown algorithm %q (valid: %v)", alg, AllAlgorithms)
	}
}

// evaluateBenefit scores a seed set with the Dagum stopping-rule
// estimator (the paper scores baselines the same way).
func evaluateBenefit(ctx context.Context, inst *Instance, seeds []graph.NodeID, cfg RunConfig, seed uint64) (float64, error) {
	est, err := core.EstimateCtx(ctx, inst.G, inst.Part, seeds, core.EstimateOptions{
		Eps:     cfg.Eps,
		Delta:   cfg.Delta,
		TMax:    cfg.EvalTMax,
		Seed:    seed ^ 0x0f0f0f0f0f0f0f0f,
		Model:   cfg.Model,
		Workers: cfg.Workers,
	})
	if err != nil {
		return 0, err
	}
	// Non-convergence means the benefit is too small to certify within
	// the budget; the running mean is still the best available score.
	return est.Benefit, nil
}
