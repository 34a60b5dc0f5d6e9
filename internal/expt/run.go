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

// Algorithm names accepted by RunAlgCtx, matching the paper's legends.
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

// MaxSamplesLimit is the largest MaxSamples a /solve request or job
// spec may ask for, equal to the IMCAF default cap (core.Options). A
// pool costs up to about 1 KiB per sample, so the limit keeps one
// request from asking for more memory than a machine has.
const MaxSamplesLimit = 1 << 20

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
	// Checkpoint, when non-nil, receives a solver checkpoint after every
	// pool growth, one per solver pass (see core.Options.Checkpoint), so
	// long solves survive a process restart. It
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
	// Stopped, Samples and Doublings are the final run's IMCAF stop
	// reason, pool size and doubling count (see core.Solution); all zero
	// for the baselines and IM, which run no IMCAF loop.
	Stopped   core.StopReason
	Samples   int
	Doublings int
}

// RunAlgCtx executes one algorithm on an instance with budget k,
// averaging over cfg.Runs repetitions. Selection time is measured; seed
// quality is then scored with the same Dagum estimator for every
// algorithm so comparisons are apples-to-apples. ctx is checked between
// repetitions and threaded through seed selection and benefit
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
		sol, err := selectSeeds(ctx, inst, alg, k, cfg, seedBase)
		if err != nil {
			return AlgResult{}, fmt.Errorf("expt: %s run %d: %w", alg, run, err)
		}
		benefit, err := evaluateBenefit(ctx, inst, sol.Seeds, cfg, seedBase)
		if err != nil {
			return AlgResult{}, fmt.Errorf("expt: %s run %d eval: %w", alg, run, err)
		}
		acc.Add(benefit)
		out.Runtime += sol.Elapsed
		out.SandwichRatio += sol.SandwichRatio
		out.Seeds = sol.Seeds
		out.Stopped, out.Samples, out.Doublings = sol.Stopped, sol.Samples, sol.Doublings
	}
	out.Benefit = acc.Mean()
	out.BenefitCI95 = acc.CI95()
	out.Runtime /= time.Duration(cfg.Runs)
	out.SandwichRatio /= float64(cfg.Runs)
	return out, nil
}

// selectSeeds runs one repetition's seed selection. The core-solver
// algorithms return their IMCAF Solution (with SandwichRatio kept only
// for the UBG family); the baselines and IM return just their seeds and
// selection time.
func selectSeeds(ctx context.Context, inst *Instance, alg string, k int, cfg RunConfig, seed uint64) (core.Solution, error) {
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
	var solver maxr.Solver
	switch alg {
	case AlgUBG:
		solver = maxr.UBG{}
	case AlgUBGLS:
		solver = maxr.Refined{Base: maxr.UBG{}}
	case AlgMAF:
		solver = maxr.MAF{Seed: seed}
	case AlgMB:
		solver = maxr.MB{MAF: maxr.MAF{Seed: seed}, BT: maxr.BT{MaxRoots: cfg.BTMaxRoots}}
	default:
		start := now()
		seeds, err := baselineSeeds(ctx, inst, alg, k, cfg, seed)
		return core.Solution{Seeds: seeds, Elapsed: now().Sub(start)}, err
	}
	sol, err := core.SolveCtx(ctx, inst.G, inst.Part, solver, opts)
	if alg != AlgUBG && alg != AlgUBGLS {
		sol.SandwichRatio = 0
	}
	return sol, err
}

// baselineSeeds runs one of the algorithms that have no IMCAF loop.
func baselineSeeds(ctx context.Context, inst *Instance, alg string, k int, cfg RunConfig, seed uint64) ([]graph.NodeID, error) {
	switch alg {
	case AlgHBC:
		return baselines.HBC(inst.G, inst.Part, k)
	case AlgKS:
		return baselines.KS(inst.G, inst.Part, k)
	case AlgDD:
		return baselines.DegreeDiscount(inst.G, k, 0.01)
	case AlgIM:
		sol, err := ris.SolveCtx(ctx, inst.G, ris.Options{
			K:          k,
			Eps:        cfg.Eps,
			Delta:      cfg.Delta,
			Seed:       seed,
			Workers:    cfg.Workers,
			MaxSamples: cfg.MaxSamples,
			Model:      cfg.Model,
			Clock:      cfg.Now,
		})
		return sol.Seeds, err
	default:
		return nil, fmt.Errorf("unknown algorithm %q (valid: %v)", alg, AllAlgorithms)
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
