package job

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"

	"imc/internal/clock"
	"imc/internal/core"
	"imc/internal/expt"
	"imc/internal/poolcache"
	"imc/internal/ric"
	"imc/internal/stats"
)

// PoolOptions configures a worker pool.
type PoolOptions struct {
	// Workers is the number of concurrent job runners (default 2).
	Workers int
	// Now supplies timestamps; nil means the wall clock.
	Now clock.Func
	// Log receives worker lifecycle events; nil means slog.Default().
	Log *slog.Logger
	// BuildInstance overrides instance construction (tests inject small
	// instances); nil means expt.BuildInstance.
	BuildInstance func(expt.InstanceConfig) (*expt.Instance, error)
	// PoolCache, when set, shares RIC pool snapshots across jobs: a
	// job whose (instance, model, seed) identity matches a cached pool
	// adopts its samples instead of regenerating them, and each growth
	// (one per solver pass) stores the grown pool back. Nil disables
	// cache use.
	PoolCache *poolcache.Cache
}

// Pool executes the store's pending jobs on a bounded set of workers.
// Each running solve checkpoints after every pool growth, one per
// solver pass, so Shutdown (or a crash) loses at most the work since
// the last growth; interrupted jobs return to pending and resume from
// their checkpoint on the next Start.
type Pool struct {
	store   *Store                                            // immutable
	workers int                                               // immutable
	now     clock.Func                                        // immutable
	log     *slog.Logger                                      // immutable
	build   func(expt.InstanceConfig) (*expt.Instance, error) // immutable
	cache   *poolcache.Cache                                  // immutable — nil disables

	baseCtx    context.Context    // immutable
	baseCancel context.CancelFunc // immutable
	wg         sync.WaitGroup

	mu        sync.Mutex
	cond      *sync.Cond            // immutable — set once in NewPool
	queue     []string              // guarded by mu
	queued    map[string]bool       // guarded by mu
	running   map[string]*runHandle // guarded by mu
	draining  bool                  // guarded by mu
	started   bool                  // guarded by mu
	durations *stats.Histogram      // guarded by mu — completed-run durations, seconds

	// checkpointHook, when set before Start, observes every durable
	// checkpoint. Tests use it to interrupt a solve at a deterministic
	// boundary (the crash/resume integration test). Deliberately
	// unannotated: the set-before-Start contract, not a lock, orders it.
	checkpointHook func(id string, cp core.Checkpoint)
}

// runHandle tracks one in-flight job's cancellation.
type runHandle struct {
	cancel     context.CancelFunc
	userCancel bool
}

// NewPool builds a pool over store. Call Start to begin executing.
func NewPool(store *Store, opts PoolOptions) *Pool {
	if opts.Workers < 1 {
		opts.Workers = 2
	}
	if opts.Log == nil {
		opts.Log = slog.Default()
	}
	if opts.BuildInstance == nil {
		opts.BuildInstance = expt.BuildInstance
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		store:      store,
		workers:    opts.Workers,
		now:        clock.OrWall(opts.Now),
		log:        opts.Log,
		build:      opts.BuildInstance,
		cache:      opts.PoolCache,
		baseCtx:    ctx,
		baseCancel: cancel,
		queued:     make(map[string]bool),
		running:    make(map[string]*runHandle),
		durations:  stats.NewLatencyHistogram(),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Start enqueues every pending job already in the store (resume-on-
// boot) and launches the workers. Start may be called once.
func (p *Pool) Start() {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return
	}
	p.started = true
	for _, id := range p.store.PendingIDs() {
		p.enqueueLocked(id)
	}
	p.mu.Unlock()
	for i := 0; i < p.workers; i++ {
		p.wg.Add(1)
		go p.worker(i)
	}
}

// Enqueue hands a pending job to the workers.
func (p *Pool) Enqueue(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.enqueueLocked(id)
}

// enqueueLocked queues id for the workers; the caller holds p.mu.
func (p *Pool) enqueueLocked(id string) {
	if p.queued[id] || p.running[id] != nil || p.draining {
		return
	}
	p.queue = append(p.queue, id)
	p.queued[id] = true
	p.cond.Signal()
}

// Cancel stops a job: a pending job is canceled immediately, a running
// one has its context canceled and finishes as canceled within one
// solver batch. Canceling a terminal job is a no-op reporting false.
func (p *Pool) Cancel(id string) (bool, error) {
	p.mu.Lock()
	if h := p.running[id]; h != nil {
		h.userCancel = true
		h.cancel()
		p.mu.Unlock()
		return true, nil
	}
	p.mu.Unlock()

	err := p.store.CancelPending(id)
	if err == nil {
		p.mu.Lock()
		delete(p.queued, id)
		for i, qid := range p.queue {
			if qid == id {
				p.queue = append(p.queue[:i], p.queue[i+1:]...)
				break
			}
		}
		p.mu.Unlock()
		return true, nil
	}
	if errors.Is(err, ErrNotFound) {
		return false, err
	}
	// Not pending and not running: terminal already.
	return false, nil
}

// Shutdown drains the pool: intake stops, idle workers exit, and
// running solves are interrupted at their next kernel batch. Each
// interrupted job's latest checkpoint is already durable, so it goes
// back to pending and will resume on the next boot. Blocks until all
// workers exited or ctx expires.
//
//imc:longrun
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	p.draining = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.baseCancel()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("job: shutdown: %w", ctx.Err())
	}
}

// PoolStats is a point-in-time view of the pool for /metrics.
type PoolStats struct {
	QueueDepth int
	Running    int
	States     map[State]int
	// RunSeconds is the completed-run duration histogram (successes,
	// failures, and cancellations alike — anything that occupied a
	// worker).
	RunSeconds stats.HistogramSnapshot
}

// Stats snapshots queue depth, in-flight count, per-state job counts,
// and the run-duration histogram.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	depth := len(p.queue)
	running := len(p.running)
	snap := p.durations.Snapshot()
	p.mu.Unlock()
	return PoolStats{
		QueueDepth: depth,
		Running:    running,
		States:     p.store.StateCounts(),
		RunSeconds: snap,
	}
}

// worker is one runner goroutine: pop, claim, execute, classify.
func (p *Pool) worker(n int) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.draining {
			p.cond.Wait()
		}
		if p.draining {
			p.mu.Unlock()
			return
		}
		id := p.queue[0]
		p.queue = p.queue[1:]
		delete(p.queued, id)
		p.mu.Unlock()

		j, err := p.store.MarkRunning(id)
		if err != nil {
			// Canceled (or otherwise moved on) between enqueue and claim.
			p.log.Info("job skipped", "job", id, "err", err)
			continue
		}
		ctx, cancel := context.WithCancel(p.baseCtx)
		p.mu.Lock()
		h := &runHandle{cancel: cancel}
		p.running[id] = h
		p.mu.Unlock()

		start := p.now()
		res, runErr := p.runJob(ctx, j)
		elapsed := p.now().Sub(start)
		interrupted := ctx.Err() != nil // read before cancel() taints it
		cancel()

		p.mu.Lock()
		userCancel := h.userCancel
		delete(p.running, id)
		p.durations.Observe(elapsed.Seconds())
		p.mu.Unlock()

		p.finish(id, n, res, runErr, interrupted, userCancel)
	}
}

// finish classifies one run's outcome and records the transition.
// interrupted reports whether the job's context was canceled before the
// run returned (drain or client cancel, per userCancel).
func (p *Pool) finish(id string, worker int, res Result, runErr error, interrupted, userCancel bool) {
	switch {
	case runErr == nil:
		if err := p.store.MarkSucceeded(id, res); err != nil {
			p.log.Error("job result not persisted", "job", id, "err", err)
			return
		}
		p.log.Info("job succeeded", "job", id, "worker", worker, "benefit", res.Benefit)
	case interrupted && userCancel:
		if err := p.store.MarkCanceled(id); err != nil {
			p.log.Error("job cancel not persisted", "job", id, "err", err)
		}
		p.log.Info("job canceled", "job", id, "worker", worker)
	case interrupted:
		// Drain: back to pending with the checkpoint still on disk.
		if err := p.store.MarkInterrupted(id); err != nil {
			p.log.Error("job interrupt not persisted", "job", id, "err", err)
		}
		p.log.Info("job interrupted for resume", "job", id, "worker", worker)
	default:
		if err := p.store.MarkFailed(id, runErr.Error()); err != nil {
			p.log.Error("job failure not persisted", "job", id, "err", err)
		}
		p.log.Info("job failed", "job", id, "worker", worker, "err", runErr)
	}
}

// runJob executes one claimed job: build the instance, restore the
// latest checkpoint if one exists, and run the algorithm with
// checkpointing wired to the store.
//
//imc:longrun
func (p *Pool) runJob(ctx context.Context, j *Job) (Result, error) {
	inst, err := p.build(j.Spec.InstanceConfig())
	if err != nil {
		return Result{}, fmt.Errorf("build instance: %w", err)
	}

	resume, err := p.store.LoadCheckpoint(j.ID, inst)
	if errors.Is(err, errNoCheckpoint) {
		resume = nil
	} else if err != nil {
		// A corrupt or mismatched checkpoint must not wedge the job
		// forever: drop it and restart the solve from scratch.
		p.log.Warn("job checkpoint unusable, restarting solve", "job", j.ID, "err", err)
		if derr := p.store.DropCheckpoint(j.ID); derr != nil {
			return Result{}, derr
		}
		resume = nil
	}

	// One cache session per run (nil-safe when no cache is wired): its
	// Grow adopts cached samples and stores each grown pool back. The
	// shared cache is an accelerator, never part of the durability
	// contract, so its failures never reach the solve; the durable job
	// checkpoint's errors still abort it.
	sess := p.cache.Begin(inst.G, inst.Part, j.Spec.model(), j.Spec.Seed)
	cfg := expt.RunConfig{
		Eps:        j.Spec.Eps,
		Delta:      j.Spec.Delta,
		Seed:       j.Spec.Seed,
		Runs:       1,
		MaxSamples: j.Spec.MaxSamples,
		BTMaxRoots: j.Spec.BTMaxRoots,
		Model:      j.Spec.model(),
		Now:        p.now,
		Grow: func(ctx context.Context, pool *ric.Pool, target int) error {
			return sess.Grow(ctx, pool, target, nil)
		},
		Checkpoint: func(cp core.Checkpoint) error {
			if err := p.store.SaveCheckpoint(j.ID, cp); err != nil {
				return err
			}
			if hook := p.checkpointHook; hook != nil {
				hook(j.ID, cp)
			}
			return nil
		},
		Resume: resume,
	}
	start := p.now()
	res, err := expt.RunAlgCtx(ctx, inst, j.Spec.Alg, j.Spec.K, cfg)
	if err != nil {
		return Result{}, err
	}
	seeds := make([]int32, len(res.Seeds))
	copy(seeds, res.Seeds)
	return Result{
		Instance:     inst.Name,
		Alg:          j.Spec.Alg,
		Seeds:        seeds,
		Benefit:      res.Benefit,
		TotalBenefit: inst.Part.TotalBenefit(),
		ElapsedMS:    p.now().Sub(start).Milliseconds(),
		Stopped:      res.Stopped.String(),
		Samples:      res.Samples,
	}, nil
}
