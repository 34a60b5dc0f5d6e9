// Command imcserve runs the IMC solver as a JSON-over-HTTP service.
//
// Usage:
//
//	imcserve -addr :8080
//	curl localhost:8080/datasets
//	curl -X POST localhost:8080/solve -d '{"dataset":"facebook","scale":0.1,"alg":"UBG","k":10}'
//
// With -job-dir, the async job subsystem comes up too: solves are
// submitted to POST /v1/jobs, run on a bounded worker pool, and
// checkpoint their progress to the job directory — a killed or
// restarted imcserve resumes every in-flight job from its last
// checkpoint and produces the result an uninterrupted run would have.
//
//	imcserve -addr :8080 -job-dir /var/lib/imcserve/jobs -workers 2
//	curl -X POST localhost:8080/v1/jobs -d '{"dataset":"facebook","scale":0.1,"alg":"UBG","k":10}'
//
// The distributed shard runtime splits RIC sample generation across
// processes. One imcserve runs as the coordinator; any number run as
// workers and join it:
//
//	imcserve -addr :8080 -coordinator
//	imcserve -addr :8081 -worker -join http://coord:8080 -advertise http://worker1:8081
//	imcserve -addr :8082 -worker -join http://coord:8080 -advertise http://worker2:8082
//
// Solves against the coordinator then farm generation out to the
// workers and splice the shards back — byte-identical to a
// single-process solve, whatever the worker count. With no workers
// joined, the coordinator simply generates locally.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"imc/internal/job"
	"imc/internal/poolcache"
	"imc/internal/serve"
	"imc/internal/shard"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "imcserve:", err)
		os.Exit(1)
	}
}

// flagGroups drives the sectioned -h output: every flag is declared
// under exactly one heading, so the help text reads as the subsystems
// users enable, not as one alphabetical wall.
var flagGroups = []struct {
	title string
	names []string
}{
	{"Server", []string{"addr", "shutdown-timeout"}},
	{"Robustness", []string{"solve-timeout", "max-inflight"}},
	{"Async jobs (/v1/jobs)", []string{"job-dir", "workers"}},
	{"Pool cache", []string{"pool-cache-dir", "pool-cache-bytes"}},
	{"Distributed shard runtime", []string{"coordinator", "worker", "join", "advertise", "shard-attempts"}},
}

func groupedUsage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "Usage of imcserve:\n")
	for _, g := range flagGroups {
		fmt.Fprintf(out, "\n%s:\n", g.title)
		for _, name := range g.names {
			f := flag.Lookup(name)
			if f == nil {
				continue
			}
			typeName, usage := flag.UnquoteUsage(f)
			fmt.Fprintf(out, "  -%s", f.Name)
			if typeName != "" {
				fmt.Fprintf(out, " %s", typeName)
			}
			fmt.Fprintf(out, "\n    \t%s", strings.ReplaceAll(usage, "\n", "\n    \t"))
			if f.DefValue != "" && f.DefValue != "false" {
				fmt.Fprintf(out, " (default %s)", f.DefValue)
			}
			fmt.Fprintln(out)
		}
	}
}

func run() error {
	var (
		addr            = flag.String("addr", ":8080", "listen address")
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown deadline")
		solveTimeout    = flag.Duration("solve-timeout", serve.DefaultSolveTimeout, "per-request deadline on heavy endpoints (negative disables)")
		maxInflight     = flag.Int("max-inflight", 0, "max concurrent heavy requests before shedding with 429 (0 = GOMAXPROCS)")
		jobDir          = flag.String("job-dir", "", "directory for the async job store; empty disables /v1/jobs")
		workers         = flag.Int("workers", 2, "job worker pool size (with -job-dir)")
		poolCacheDir    = flag.String("pool-cache-dir", "", "directory for the shared RIC pool snapshot cache; empty disables caching")
		poolCacheBytes  = flag.Int64("pool-cache-bytes", 1<<30, "pool cache byte budget before LRU eviction (with -pool-cache-dir; ≤ 0 = unlimited)")
		coordinator     = flag.Bool("coordinator", false, "run as shard coordinator: distribute RIC generation to joined workers")
		workerMode      = flag.Bool("worker", false, "run as shard worker: serve sample ranges at /shard/*")
		joinURL         = flag.String("join", "", "coordinator base URL to register with (with -worker)")
		advertise       = flag.String("advertise", "", "base URL the coordinator should dial back (required with -join)")
		shardAttempts   = flag.Int("shard-attempts", 3, "workers tried per sample range before the coordinator generates it locally")
	)
	flag.Usage = groupedUsage
	flag.Parse()
	if *joinURL != "" && !*workerMode {
		return errors.New("-join requires -worker")
	}
	if *joinURL != "" && *advertise == "" {
		return errors.New("-join requires -advertise (the URL the coordinator dials back)")
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	cfg := serve.Config{
		SolveTimeout: *solveTimeout,
		MaxInflight:  *maxInflight,
	}

	// The pool cache, when enabled, is shared by the synchronous solve
	// endpoints, the job workers, and the shard worker (which stores its
	// generated ranges as content-addressed shard entries): any solve
	// warms it, any later solve over the same (instance, model, seed)
	// adopts the cached samples and generates only the missing tail.
	var cache *poolcache.Cache
	if *poolCacheDir != "" {
		var err error
		cache, err = poolcache.Open(*poolCacheDir, poolcache.Options{
			MaxBytes: *poolCacheBytes,
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			return err
		}
		st := cache.Stats()
		logger.Info("pool cache open", "dir", *poolCacheDir,
			"entries", st.Entries, "bytes", st.Bytes, "budget", *poolCacheBytes)
		cfg.PoolCache = cache
	}

	// The job subsystem, when enabled, opens the store (replaying the
	// journal: jobs left running by a previous process return to pending)
	// and starts the worker pool, which re-enqueues every pending job —
	// resume-on-boot.
	var pool *job.Pool
	if *jobDir != "" {
		store, err := job.Open(*jobDir, nil)
		if err != nil {
			return err
		}
		defer store.Close()
		pool = job.NewPool(store, job.PoolOptions{Workers: *workers, Log: logger, PoolCache: cache})
		pending := len(store.PendingIDs())
		pool.Start()
		logger.Info("job pool started", "dir", *jobDir, "workers", *workers, "resumedPending", pending)
		cfg.JobStore = store
		cfg.JobPool = pool
	}

	// Shard roles. A worker persists generated ranges in the pool cache
	// (with -pool-cache-dir), so a killed-and-restarted worker serves
	// the same ranges without regenerating. A coordinator accepts joins
	// at /shard/join and farms solve-time generation out to whoever has
	// joined.
	if *workerMode {
		w, err := shard.NewWorker(shard.WorkerConfig{
			Build:  serve.ShardInstanceBuilder(),
			Cache:  cache,
			Logger: logger,
		})
		if err != nil {
			return err
		}
		logger.Info("shard worker enabled", "cache", cache != nil)
		cfg.ShardWorker = w
	}
	if *coordinator {
		cfg.ShardCoordinator = shard.NewCoordinator(shard.CoordinatorConfig{
			MaxAttempts: *shardAttempts,
			Logger:      logger,
		})
		logger.Info("shard coordinator enabled", "attempts", *shardAttempts)
	}

	handler := serve.NewWithOptions(logger, nil, cfg).Handler()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errCh <- srv.ListenAndServe()
	}()

	// The join loop registers this worker with the coordinator, retrying
	// until it lands, then re-joins periodically as a heartbeat —
	// re-registration is how a worker the coordinator marked dead (after
	// a restart, say) returns to rotation.
	joinCtx, stopJoin := context.WithCancel(context.Background())
	defer stopJoin()
	if *joinURL != "" {
		go joinLoop(joinCtx, logger, *joinURL, *advertise)
	}

	// drainJobs checkpoints and parks the running jobs: each worker is
	// interrupted at its next solver batch, the job returns to pending
	// (its latest checkpoint is already durable), and the next boot
	// resumes it.
	drainJobs := func(ctx context.Context) {
		if pool == nil {
			return
		}
		if err := pool.Shutdown(ctx); err != nil {
			logger.Error("job pool drain incomplete", "err", err)
			return
		}
		logger.Info("job pool drained")
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case sig := <-stop:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		// Stop intake first, then park the jobs, sharing one deadline.
		if err := srv.Shutdown(ctx); err != nil {
			// The deadline passed with requests still in flight; the
			// per-request solve deadline will reap them, but don't leave
			// the listener half-open.
			_ = srv.Close()
			drainJobs(ctx)
			return fmt.Errorf("graceful shutdown: %w", err)
		}
		drainJobs(ctx)
		<-errCh // drain the ListenAndServe result
		return nil
	}
}

// joinLoop registers with the coordinator: fast retries until the first
// success (the coordinator may still be booting), then a slow heartbeat.
func joinLoop(ctx context.Context, logger *slog.Logger, coordURL, advertise string) {
	interval := 2 * time.Second
	joined := false
	for {
		if err := shard.Join(ctx, nil, coordURL, advertise); err != nil {
			if ctx.Err() != nil {
				return
			}
			logger.Warn("shard join failed", "coordinator", coordURL, "err", err)
		} else if !joined {
			logger.Info("joined shard coordinator", "coordinator", coordURL, "advertise", advertise)
			joined = true
			interval = 30 * time.Second
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}
