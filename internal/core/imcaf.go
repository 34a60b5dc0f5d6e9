package core

import (
	"context"
	"fmt"
	"log/slog"
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

// String implements fmt.Stringer.
func (s StopReason) String() string {
	switch s {
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
	// maxr.GreedyNu as the selector, yielding the
	// (c(S_ν)/ν(S_ν))·(1−1/e−ε) guarantee. Solver is ignored when set.
	NuGuided bool
	// Logger, when non-nil, receives per-round progress (pool size,
	// candidate quality, stop checks) at Debug level.
	Logger *slog.Logger
	// Clock supplies timestamps for the Elapsed report; nil means the
	// real wall clock. Only reporting reads it — never sampling.
	Clock clock.Func
	// Checkpoint, when non-nil, is invoked at every pool-growth boundary
	// (after the initial generation and after each doubling, before the
	// round's solver pass) with the live pool and round counter. A
	// checkpoint error aborts the solve: the caller asked for durable
	// progress and is not getting it. The callback must not mutate the
	// pool.
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
	// otherwise generate (the initial batch and each doubling), and the
	// hook must leave the pool with at least target samples. This is
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
}

// Solve runs the IMC Algorithmic Framework (paper Alg. 5) with the
// given MAXR solver: generate Λ RIC samples, repeatedly solve MAXR and
// verify the candidate with the Estimate procedure, doubling the pool
// until a statistical certificate or the Ψ bound is reached.
func Solve(g *graph.Graph, part *community.Partition, solver maxr.Solver, opts Options) (Solution, error) {
	return SolveCtx(context.Background(), g, part, solver, opts)
}

// SolveCtx is Solve with cooperative cancellation: the stop-and-stare
// loop checks ctx between doubling rounds and threads it into sample
// generation, the MAXR solver (when it implements maxr.CtxSolver), and
// the Estimate verification batches. A run that completes returns
// byte-identical seeds with or without a context — the checks never
// touch the PRNG streams — while a cancelled run returns the ctx error
// promptly (within one worker batch, ~1k samples).
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
	grow := opts.growFunc()
	if opts.Resume == nil {
		if err := grow(ctx, pool, initial); err != nil {
			return Solution{}, err
		}
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

	logger := opts.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	logger.Debug("imcaf start",
		"k", opts.K, "alpha", alpha, "psi", psi, "lambda", lambda,
		"initialSamples", initial, "resumeDoublings", resumeFrom)

	// Alg. 6's stopping threshold for the stop checks. A check draws at
	// most checkTMax(|R|) samples, each adding at most 1 to its mass, so
	// a round whose TMax is below Λ′ cannot certify.
	checkLambda := stoppingThreshold(se2, estDelta)

	sol := Solution{Alpha: alpha, Stopped: StopSampleCap}
	doublings := resumeFrom
	// Boundary checkpoint before the first (or first resumed) solver
	// round: once this returns, a crash loses at most one round of work.
	if opts.Checkpoint != nil {
		if err := opts.Checkpoint(Checkpoint{Pool: pool, Doublings: doublings}); err != nil {
			return Solution{}, fmt.Errorf("core: checkpoint at round %d: %w", doublings, err)
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return Solution{}, err
		}
		samples := pool.NumSamples()
		tmax := checkTMax(samples, se2, se3)
		certifiable := float64(tmax) >= checkLambda
		capped := float64(samples) >= psi || samples*2 > opts.MaxSamples
		if !certifiable && !capped {
			// The round can neither certify nor hit a cap, so it doubles
			// whatever its solver pass returns: skip the pass and the check.
			logger.Debug("imcaf skip",
				"round", doublings, "samples", samples,
				"tmax", tmax, "checkLambda", checkLambda)
		} else {
			seeds, chat, ratio, err := runSolver(ctx, pool, solver, opts)
			if err != nil {
				return Solution{}, err
			}
			sol.Seeds = seeds
			sol.CHat = chat
			sol.SandwichRatio = ratio
			sol.Samples = samples
			sol.Doublings = doublings

			// Alg. 5 line 8: enough influenced samples for a reliable check?
			coverage := influencedMass(pool, seeds, opts.NuGuided)
			logger.Debug("imcaf round",
				"round", doublings, "samples", samples,
				"chat", chat, "coverage", coverage)
			if coverage >= lambda && certifiable {
				est, err := EstimateCtx(ctx, g, part, seeds, EstimateOptions{
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
				objective := chat
				if opts.NuGuided {
					objective = pool.NuHat(seeds)
				}
				logger.Debug("imcaf estimate check",
					"round", doublings, "estimate", est.Benefit,
					"converged", est.Converged, "objective", objective)
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
		}
		if err := grow(ctx, pool, samples*2); err != nil {
			return Solution{}, err
		}
		doublings++
		if opts.Checkpoint != nil {
			if err := opts.Checkpoint(Checkpoint{Pool: pool, Doublings: doublings}); err != nil {
				return Solution{}, fmt.Errorf("core: checkpoint at round %d: %w", doublings, err)
			}
		}
	}
	sol.Elapsed = now().Sub(start)
	logger.Debug("imcaf done",
		"stopped", sol.Stopped.String(), "samples", sol.Samples,
		"chat", sol.CHat, "elapsed", sol.Elapsed)
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

// discardHandler drops every record; it stands in when no Logger is
// configured so call sites stay unconditional.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// SolveFixed runs a MAXR solver against a fixed-size pool, skipping the
// adaptive stop machinery. Benchmarks and examples that want direct
// control over sampling effort use this entry point.
func SolveFixed(g *graph.Graph, part *community.Partition, solver maxr.Solver, k, numSamples int, opts Options) (Solution, error) {
	return SolveFixedCtx(context.Background(), g, part, solver, k, numSamples, opts)
}

// SolveFixedCtx is SolveFixed with cooperative cancellation threaded
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
	seeds, chat, ratio, err := runSolver(ctx, pool, solver, opts)
	if err != nil {
		return Solution{}, err
	}
	return Solution{
		Seeds:         seeds,
		CHat:          chat,
		Samples:       pool.NumSamples(),
		Stopped:       StopSampleCap,
		Alpha:         solver.Guarantee(pool, k),
		Elapsed:       now().Sub(start),
		SandwichRatio: ratio,
	}, nil
}

// runSolver executes the configured selection step: the MAXR solver, or
// greedy-on-ν when NuGuided. The ctx reaches solvers that implement
// maxr.CtxSolver; plain solvers get one up-front cancellation check.
func runSolver(ctx context.Context, pool *ric.Pool, solver maxr.Solver, opts Options) (seeds []graph.NodeID, chat, ratio float64, err error) {
	if opts.NuGuided {
		seeds, err = maxr.GreedyNuCtx(ctx, pool, opts.K)
		if err != nil {
			return nil, 0, 0, err
		}
		chat = pool.CHat(seeds)
	} else {
		var res maxr.Result
		res, err = maxr.SolveWithContext(ctx, solver, pool, opts.K)
		if err != nil {
			return nil, 0, 0, err
		}
		seeds, chat = res.Seeds, res.CHat
	}
	ratio = maxr.SandwichRatio(pool, seeds)
	return seeds, chat, ratio, nil
}

// checkTMax is the sample cap of a round's stop check over a pool of
// the given size: |R|·(1+ε₂)/(1−ε₂)·ε₃²/ε₂², at least 1.
//
//imc:pure
func checkTMax(samples int, se2, se3 float64) int {
	tmax := int(float64(samples) * (1 + se2) / (1 - se2) * (se3 * se3) / (se2 * se2))
	return max(tmax, 1)
}

// influencedMass returns the Alg. 5 line-8 statistic: the influenced
// sample count (or, in ν-guided mode, the fractional sum).
func influencedMass(pool *ric.Pool, seeds []graph.NodeID, fractional bool) float64 {
	st := pool.NewState()
	for _, s := range seeds {
		st.Add(s)
	}
	if fractional {
		return st.FractionalSum()
	}
	return float64(st.InfluencedCount())
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
