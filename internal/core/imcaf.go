package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"imc/internal/clock"
	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/maxr"
	"imc/internal/ric"
)

// StopReason explains why IMCAF terminated.
type StopReason int

const (
	// StopCondition means the Alg. 5 statistical check passed: the
	// candidate's estimated quality certifies the α(1−ε) guarantee.
	StopCondition StopReason = iota + 1
	// StopPsiCap means the pool reached the worst-case bound Ψ (eq. 22),
	// which alone certifies the guarantee (Theorem 6).
	StopPsiCap
	// StopSampleCap means the configured MaxSamples safety cap was hit
	// before either statistical certificate; the result is best-effort.
	StopSampleCap
)

// String implements fmt.Stringer. The zero StopReason, which a run
// without an IMCAF loop reports, renders as "".
func (s StopReason) String() string {
	switch s {
	case 0:
		return ""
	case StopCondition:
		return "stop-condition"
	case StopPsiCap:
		return "psi-cap"
	case StopSampleCap:
		return "sample-cap"
	default:
		return fmt.Sprintf("StopReason(%d)", int(s))
	}
}

// Options configures one IMCAF run.
type Options struct {
	// K is the seed budget.
	K int
	// Eps is the total approximation slack ε ∈ (0, 1); the paper's
	// experiments use 0.2.
	Eps float64
	// Delta is the total failure probability δ ∈ (0, 1); default 0.2.
	Delta float64
	// Model selects IC (default) or LT.
	Model diffusion.Model
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds the parallelism of sample generation and of the
	// Alg. 6 stop checks; 0 = GOMAXPROCS.
	Workers int
	// MaxSamples is a practical safety cap on |R| (Ψ can be astronomically
	// large for weak α). 0 defaults to 1<<20.
	MaxSamples int
	// NuGuided switches to the paper's UBG integration (§V-B end):
	// stop-and-stare against the submodular ν objective with
	// maxr.GreedyNuCtx as the selector, yielding the
	// (c(S_ν)/ν(S_ν))·(1−1/e−ε) guarantee. Solver is ignored when set.
	NuGuided bool
	// Clock supplies timestamps for the Elapsed report; nil means the
	// real wall clock. Only reporting reads it — never sampling.
	Clock clock.Func
	// Checkpoint, when non-nil, is invoked after every pool growth with
	// the live pool and the counter of the round it grew to. The loop
	// grows once per solver pass, straight past the rounds it skips, so
	// the callback fires right before each pass that follows a growth; a
	// resumed run whose pool is already large enough grows nothing before
	// its first pass and fires nothing there. A checkpoint error aborts
	// the solve: the caller asked for durable progress and is not getting
	// it. The callback must not mutate the pool.
	Checkpoint CheckpointFunc
	// Resume, when non-nil, restarts the stop-and-stare loop from a
	// previously checkpointed pool instead of generating the initial
	// batch. The pool must have been created over the same graph and
	// partition with the same Seed and Model (validated), and Options
	// must otherwise equal the original run's — then the resumed run
	// retraces the uninterrupted one exactly, seed for seed.
	Resume *Checkpoint
	// Grow, when non-nil, supplies pool samples in place of plain
	// generation: the stop-and-stare loop calls it wherever it would
	// otherwise generate, once per solver pass with the size of the
	// pass's round (skipped rounds are never grown to), and the hook
	// must leave the pool with at least target samples. This is
	// the pool cache's seam — a cached snapshot donates its prefix and
	// only the missing tail is generated. Because sample i is always
	// drawn from PRNG stream i, a correct hook is observationally
	// identical to generation, so every stop check still runs against
	// exactly the pool a cold run would have had. Nil means
	// ric.Pool.EnsureCtx.
	Grow GrowFunc
}

// GrowFunc grows pool to at least target samples. Implementations may
// source samples anywhere (generation, a cache, a donor pool) but the
// result must be byte-identical to pool.EnsureCtx(ctx, target) — the
// solvers' determinism and the statistical guarantees both ride on it.
type GrowFunc func(ctx context.Context, pool *ric.Pool, target int) error

// growFunc returns the configured Grow hook or the plain-generation
// default.
func (o Options) growFunc() GrowFunc {
	if o.Grow != nil {
		return o.Grow
	}
	return func(ctx context.Context, pool *ric.Pool, target int) error {
		return pool.EnsureCtx(ctx, target)
	}
}

// Checkpoint captures the resumable progress of a SolveCtx run at a
// pool-growth boundary. Everything else the loop consults — Λ, Ψ, the
// estimate-check seeds — is recomputed deterministically from Options,
// so the pool plus the round counter is the whole resume state.
type Checkpoint struct {
	// Pool is the live sample pool; persist it with Pool.Save.
	Pool *ric.Pool
	// Doublings is the stop-and-stare round counter at the boundary.
	Doublings int
}

// CheckpointFunc receives solver checkpoints. Implementations typically
// serialize cp.Pool and record cp.Doublings somewhere durable.
type CheckpointFunc func(cp Checkpoint) error

func (o Options) normalized() (Options, error) {
	if o.K < 1 {
		return o, fmt.Errorf("core: K=%d must be ≥ 1", o.K)
	}
	if o.Eps <= 0 || o.Eps >= 1 {
		return o, fmt.Errorf("core: Eps %g out of (0, 1)", o.Eps)
	}
	if o.Delta <= 0 || o.Delta >= 1 {
		return o, fmt.Errorf("core: Delta %g out of (0, 1)", o.Delta)
	}
	if o.Model == 0 {
		o.Model = diffusion.IC
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = 1 << 20
	}
	return o, nil
}

// Solution is the outcome of an IMCAF run.
type Solution struct {
	// Seeds is the selected seed set.
	Seeds []graph.NodeID
	// CHat is the pool estimate ĉ_R(Seeds) at termination.
	CHat float64
	// EstimatedBenefit is the independent Estimate-procedure value when
	// the stop condition fired (0 when terminated by a cap).
	EstimatedBenefit float64
	// Samples is the final pool size |R|.
	Samples int
	// Doublings counts pool-doubling rounds.
	Doublings int
	// Stopped records why the loop ended.
	Stopped StopReason
	// Alpha is the solver's approximation guarantee used in Ψ.
	Alpha float64
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
	// SandwichRatio is ĉ_R/ν̂_R of the returned seeds (UBG's empirical
	// factor); 0 when ν̂_R is 0.
	SandwichRatio float64
	// Rounds traces the stop-and-stare loop, one entry per pass in
	// order; a resumed run's trace starts at its resumed round.
	Rounds []Round
}

// Round is one pass of the stop-and-stare loop (paper Alg. 5): the pool
// it ran on and what its solver pass and stop check found. A skipped
// pass ran neither, and carries only Doublings, Samples and Skipped.
type Round struct {
	// Doublings is the round counter: the pool doublings before this
	// pass.
	Doublings int
	// Samples is the pool size |R| the pass ran on.
	Samples int
	// CHat is ĉ_R of the pass's candidate seed set.
	CHat float64
	// Coverage is the Alg. 5 line-8 statistic of the candidate: its
	// influenced sample count (the fractional sum when NuGuided).
	Coverage float64
	// Estimate is the stop check's Estimate value (0 when not checked).
	Estimate float64
	// Skipped means the pass could neither certify (its check would
	// draw fewer than Λ′ samples) nor reach a cap, so it ran neither the
	// solver nor the check.
	Skipped bool
	// Checked means the pass ran the Alg. 6 stop check.
	Checked bool
	// Converged reports whether that Estimate converged within its TMax.
	Converged bool
}

// SolveCtx runs the IMC Algorithmic Framework (paper Alg. 5) with the
// given MAXR solver: generate Λ RIC samples, repeatedly solve MAXR and
// verify the candidate with the Estimate procedure, doubling the pool
// until a statistical certificate or the Ψ bound is reached.
//
// The stop-and-stare loop checks ctx between doubling rounds and
// threads it into sample generation, the MAXR solver and the Estimate
// verification batches. The checks never touch the PRNG streams, so a
// run that completes returns the same seeds whether or not ctx can be
// cancelled, while a cancelled run returns the ctx error promptly
// (within one worker batch, ~1k samples).
//
//imc:longrun
func SolveCtx(ctx context.Context, g *graph.Graph, part *community.Partition, solver maxr.Solver, opts Options) (Solution, error) {
	opts, err := opts.normalized()
	if err != nil {
		return Solution{}, err
	}
	if err := compatible(g, part, opts.K); err != nil {
		return Solution{}, err
	}
	now := clock.OrWall(opts.Clock)
	start := now()

	var pool *ric.Pool
	resumeFrom := 0
	if opts.Resume != nil {
		if pool, err = validateResume(g, part, opts); err != nil {
			return Solution{}, err
		}
		resumeFrom = opts.Resume.Doublings
	} else {
		pool, err = ric.NewPool(g, part, ric.PoolOptions{Model: opts.Model, Seed: opts.Seed, Workers: opts.Workers})
		if err != nil {
			return Solution{}, err
		}
	}

	// Alg. 5 line 1: split ε, δ for the Ψ bound (paper setting:
	// ε1 = ε2 = ε/2, δ1 = δ2 = δ/2).
	eps1, eps2 := opts.Eps/2, opts.Eps/2
	delta1, delta2 := opts.Delta/2, opts.Delta/2
	// Alg. 5 line 3: split ε for the stop stage (paper setting ε/4 each;
	// ε ≥ ε1+ε2+ε3+ε1ε2 holds).
	se1, se2, se3 := opts.Eps/4, opts.Eps/4, opts.Eps/4

	alpha := solver.Guarantee(pool, opts.K)
	if opts.NuGuided {
		alpha = 1 - 1/math.E
	}
	psi := PsiBound(g, part, opts.K, alpha, eps1, eps2, delta1, delta2)

	// Alg. 5 line 4: Λ = (1+ε1)(1+ε2)·(3/ε3²)·ln(3/(2δ)). (The paper's
	// typography is ambiguous about the ε3 exponent; we use the SSA
	// form, see DESIGN.md.)
	lambda := (1 + se1) * (1 + se2) * 3 / (se3 * se3) * math.Log(3/(2*opts.Delta))
	initial := int(math.Ceil(lambda))
	if initial < 1 {
		initial = 1
	}
	if initial > opts.MaxSamples {
		initial = opts.MaxSamples
	}
	// Checkpoint count for the union bound over stop stages. Ψ can be
	// infinite when the solver's guarantee is vacuous (e.g. MAF with
	// h > k), in which case the doubling schedule is bounded by
	// MaxSamples instead.
	checkpoints := math.Log2(psi / lambda)
	if math.IsInf(checkpoints, 1) || math.IsNaN(checkpoints) {
		checkpoints = math.Log2(float64(opts.MaxSamples) / lambda)
	}
	if checkpoints < 1 {
		checkpoints = 1
	}
	estDelta := opts.Delta / (3 * checkpoints)
	if estDelta >= 1 {
		estDelta = 0.5
	}
	if estDelta < 1e-9 {
		estDelta = 1e-9
	}

	// Alg. 6's stopping threshold for the stop checks. A check draws at
	// most checkTMax(|R|) samples, each adding at most 1 to its mass, so
	// a round whose TMax is below Λ′ cannot certify.
	checkLambda := stoppingThreshold(se2, estDelta)
	// solves reports whether the round over a pool of the given size runs
	// its solver pass: one that can neither certify nor hit a cap doubles
	// whatever the pass returns, so it runs neither the pass nor the check.
	solves := func(samples int) bool {
		certifiable := float64(checkTMax(samples, se2, se3)) >= checkLambda
		capped := float64(samples) >= psi || samples*2 > opts.MaxSamples
		return certifiable || capped
	}

	grow := opts.growFunc()
	sol := Solution{Alpha: alpha, Stopped: StopSampleCap}
	doublings := resumeFrom
	samples := initial
	if opts.Resume != nil {
		samples = pool.NumSamples()
	}
	for {
		// Whether a round solves depends on its sample count alone, so the
		// skipped rounds ahead are known before any of them is sampled:
		// trace them, then grow once, straight to the next solved round.
		for !solves(samples) {
			sol.Rounds = append(sol.Rounds, Round{Doublings: doublings, Samples: samples, Skipped: true})
			samples *= 2
			doublings++
		}
		if pool.NumSamples() < samples {
			if err := grow(ctx, pool, samples); err != nil {
				return Solution{}, err
			}
			// Once the checkpoint returns, a crash loses at most this
			// growth's work.
			if opts.Checkpoint != nil {
				if err := opts.Checkpoint(Checkpoint{Pool: pool, Doublings: doublings}); err != nil {
					return Solution{}, fmt.Errorf("core: checkpoint at round %d: %w", doublings, err)
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return Solution{}, err
		}
		tmax := checkTMax(samples, se2, se3)
		cand, err := runSolver(ctx, pool, solver, opts)
		if err != nil {
			return Solution{}, err
		}
		sol.Seeds = cand.seeds
		sol.CHat = cand.chat
		sol.SandwichRatio = cand.ratio
		sol.Samples = samples
		sol.Doublings = doublings
		sol.Rounds = append(sol.Rounds, Round{Doublings: doublings, Samples: samples, CHat: cand.chat, Coverage: cand.coverage})
		round := &sol.Rounds[len(sol.Rounds)-1]

		// Alg. 5 line 8: enough influenced samples for a reliable check?
		if cand.coverage >= lambda && float64(tmax) >= checkLambda {
			est, err := EstimateCtx(ctx, g, part, cand.seeds, EstimateOptions{
				Eps:        se2,
				Delta:      estDelta,
				TMax:       tmax,
				Model:      opts.Model,
				Seed:       opts.Seed ^ 0x5e5e5e5e5e5e5e5e ^ uint64(doublings)<<32,
				Fractional: opts.NuGuided,
				Workers:    opts.Workers,
			})
			if err != nil {
				return Solution{}, err
			}
			objective := cand.chat
			if opts.NuGuided {
				objective = cand.nu
			}
			round.Checked, round.Estimate, round.Converged = true, est.Benefit, est.Converged
			if est.Converged && objective <= (1+se1)*est.Benefit {
				sol.EstimatedBenefit = est.Benefit
				sol.Stopped = StopCondition
				break
			}
		}

		if float64(samples) >= psi {
			sol.Stopped = StopPsiCap
			break
		}
		if samples*2 > opts.MaxSamples {
			sol.Stopped = StopSampleCap
			break
		}
		samples *= 2
		doublings++
	}
	sol.Elapsed = now().Sub(start)
	return sol, nil
}

// validateResume checks that a Resume checkpoint can only continue the
// run it was taken from: same instance shape, same seed, same model,
// and a non-empty pool. Anything else would silently fork the sample
// sequence and break the byte-identical-resume guarantee.
func validateResume(g *graph.Graph, part *community.Partition, opts Options) (*ric.Pool, error) {
	pool := opts.Resume.Pool
	switch {
	case pool == nil:
		return nil, fmt.Errorf("core: resume checkpoint has no pool")
	case pool.NumSamples() == 0:
		return nil, fmt.Errorf("core: resume pool is empty")
	case opts.Resume.Doublings < 0:
		return nil, fmt.Errorf("core: resume doublings %d is negative", opts.Resume.Doublings)
	case pool.Graph().NumNodes() != g.NumNodes():
		return nil, fmt.Errorf("core: resume pool covers %d nodes, graph has %d", pool.Graph().NumNodes(), g.NumNodes())
	case pool.Partition().NumCommunities() != part.NumCommunities():
		return nil, fmt.Errorf("core: resume pool has %d communities, partition has %d", pool.Partition().NumCommunities(), part.NumCommunities())
	case pool.Seed() != opts.Seed:
		return nil, fmt.Errorf("core: resume pool seed %d does not match Options.Seed %d", pool.Seed(), opts.Seed)
	case pool.Model() != opts.Model:
		return nil, fmt.Errorf("core: resume pool model %v does not match Options.Model %v", pool.Model(), opts.Model)
	}
	return pool, nil
}

// SolveFixedCtx runs a MAXR solver against a fixed-size pool, skipping
// the adaptive stop machinery. Benchmarks and examples that want direct
// control over sampling effort use this entry point. ctx is threaded
// into sample generation and the solver.
//
//imc:longrun
func SolveFixedCtx(ctx context.Context, g *graph.Graph, part *community.Partition, solver maxr.Solver, k, numSamples int, opts Options) (Solution, error) {
	if numSamples < 1 {
		return Solution{}, fmt.Errorf("core: numSamples=%d must be ≥ 1", numSamples)
	}
	opts.K = k
	if opts.Eps == 0 {
		opts.Eps = 0.2
	}
	if opts.Delta == 0 {
		opts.Delta = 0.2
	}
	opts, err := opts.normalized()
	if err != nil {
		return Solution{}, err
	}
	if err := compatible(g, part, k); err != nil {
		return Solution{}, err
	}
	now := clock.OrWall(opts.Clock)
	start := now()
	pool, err := ric.NewPool(g, part, ric.PoolOptions{Model: opts.Model, Seed: opts.Seed, Workers: opts.Workers})
	if err != nil {
		return Solution{}, err
	}
	if err := opts.growFunc()(ctx, pool, numSamples); err != nil {
		return Solution{}, err
	}
	cand, err := runSolver(ctx, pool, solver, opts)
	if err != nil {
		return Solution{}, err
	}
	return Solution{
		Seeds:         cand.seeds,
		CHat:          cand.chat,
		Samples:       pool.NumSamples(),
		Stopped:       StopSampleCap,
		Alpha:         solver.Guarantee(pool, k),
		Elapsed:       now().Sub(start),
		SandwichRatio: cand.ratio,
	}, nil
}

// candidate is one solver pass's seed set and the pool statistics the
// loop reads of it, all taken from one coverage state over the pool.
type candidate struct {
	seeds []graph.NodeID
	// chat is ĉ_R: the solver's own report, or the state's under
	// NuGuided.
	chat float64
	// nu is ν̂_R, the submodular upper bound (paper eq. 7).
	nu float64
	// coverage is the Alg. 5 line-8 statistic: the influenced sample
	// count, or the fractional sum under NuGuided.
	coverage float64
	// ratio is the sandwich ratio ĉ_R/ν̂_R (UBG's empirical factor), 0
	// when ν̂_R is 0.
	ratio float64
}

// runSolver executes the configured selection step: the MAXR solver, or
// greedy-on-ν when NuGuided.
func runSolver(ctx context.Context, pool *ric.Pool, solver maxr.Solver, opts Options) (candidate, error) {
	var c candidate
	if opts.NuGuided {
		seeds, err := maxr.GreedyNuCtx(ctx, pool, opts.K)
		if err != nil {
			return candidate{}, err
		}
		c.seeds = seeds
	} else {
		res, err := solver.SolveCtx(ctx, pool, opts.K)
		if err != nil {
			return candidate{}, err
		}
		c.seeds, c.chat = res.Seeds, res.CHat
	}
	st := pool.NewState()
	for _, s := range c.seeds {
		st.Add(s)
	}
	influenced, frac := st.InfluencedCount(), st.FractionalSum()
	chat := pool.Scale() * float64(influenced)
	c.nu = pool.Scale() * frac
	if opts.NuGuided {
		c.chat, c.coverage = chat, frac
	} else {
		c.coverage = float64(influenced)
	}
	if c.nu > 0 {
		c.ratio = chat / c.nu
	}
	return c, nil
}

// checkTMax is the sample cap of a round's stop check over a pool of
// the given size: |R|·(1+ε₂)/(1−ε₂)·ε₃²/ε₂², at least 1.
func checkTMax(samples int, se2, se3 float64) int {
	tmax := int(float64(samples) * (1 + se2) / (1 - se2) * (se3 * se3) / (se2 * se2))
	return max(tmax, 1)
}

// PsiBound computes Ψ (paper eq. 22): the worst-case number of RIC
// samples certifying an α(1−ε) guarantee, using the optimum lower bound
// c(S*) ≥ βk/h (β = min benefit, h = max threshold).
func PsiBound(g *graph.Graph, part *community.Partition, k int, alpha, eps1, eps2, delta1, delta2 float64) float64 {
	b := part.TotalBenefit()
	beta := part.MinBenefit()
	h := float64(part.MaxThreshold())
	if beta <= 0 || h <= 0 || alpha <= 0 {
		return math.Inf(1)
	}
	n := float64(g.NumNodes())
	lnBinom := lnChoose(n, float64(k))
	t1 := 2 * math.Log(1/delta1) / (eps1 * eps1)
	t2 := 3 * (lnBinom + math.Log(1/delta2)) / (alpha * alpha * eps2 * eps2)
	lead := b * h / (beta * float64(k))
	return lead * math.Max(t1, t2)
}

// lnChoose returns ln C(n, k) via log-gamma.
func lnChoose(n, k float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	lg := func(x float64) float64 {
		v, _ := math.Lgamma(x + 1)
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// compatible validates (graph, partition, budget) agreement.
func compatible(g *graph.Graph, part *community.Partition, k int) error {
	if g.NumNodes() != part.NumNodes() {
		return fmt.Errorf("core: graph has %d nodes but partition covers %d", g.NumNodes(), part.NumNodes())
	}
	if k > g.NumNodes() {
		return fmt.Errorf("core: K=%d exceeds node count %d", k, g.NumNodes())
	}
	return part.Validate()
}
