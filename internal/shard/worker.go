package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"

	"imc/internal/community"
	"imc/internal/graph"
	"imc/internal/poolcache"
	"imc/internal/ric"
)

// BuildFunc rebuilds the (graph, partition) an InstanceSpec names. The
// builder is injected — usually a thin wrapper over the experiment
// harness — so this package stays independent of how instances are
// constructed and tests can substitute cheap fixtures.
type BuildFunc func(spec InstanceSpec) (*graph.Graph, *community.Partition, error)

// WorkerConfig assembles a Worker.
type WorkerConfig struct {
	// Build rebuilds instances from specs. Required.
	Build BuildFunc
	// Cache, when set, persists generated ranges as content-addressed
	// shard entries (poolcache.KeyForShard), so repeated and
	// post-restart requests are served from disk instead of
	// regenerated. Nil disables persistence — every request generates.
	Cache *poolcache.Cache
	// Logger may be nil (discards to slog.Default).
	Logger *slog.Logger
}

// Worker serves shard ranges over HTTP. It is stateless beyond its
// instance cache and pool cache: any request can be answered
// from scratch because generation is deterministic per (identity,
// range), which is what makes worker restarts and range reassignment
// safe without coordination.
type Worker struct {
	build  BuildFunc        //imc:guardedby immutable
	cache  *poolcache.Cache //imc:guardedby immutable
	logger *slog.Logger     //imc:guardedby immutable

	mu sync.Mutex
	// instances holds built (graph, partition) pairs per spec, with one
	// in-flight build slot each (singleflight): concurrent requests for
	// the same spec wait on the first build instead of duplicating it.
	instances map[string]*instanceSlot //imc:guardedby mu
}

// instanceSlot is one singleflight build. g, part, and err are written
// exactly once before done closes; the close publishes them.
type instanceSlot struct {
	done chan struct{}
	g    *graph.Graph
	part *community.Partition
	err  error
}

// NewWorker builds a Worker. A missing Build is an error.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("shard: WorkerConfig.Build is required")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &Worker{
		build:     cfg.Build,
		cache:     cfg.Cache,
		logger:    cfg.Logger,
		instances: make(map[string]*instanceSlot),
	}, nil
}

// Close is a no-op: a Worker holds no handles of its own (the pool
// cache belongs to the caller). It is kept so callers can defer it
// unconditionally.
func (w *Worker) Close() error { return nil }

// Routes mounts the worker endpoints on mux.
func (w *Worker) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET "+PingPath, w.handlePing)
	mux.HandleFunc("POST "+PoolPath, w.handlePool)
}

func (w *Worker) handlePing(rw http.ResponseWriter, _ *http.Request) {
	writeShardJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
}

func (w *Worker) handlePool(rw http.ResponseWriter, r *http.Request) {
	var req GenRequest
	if err := decodeShardJSON(r, &req); err != nil {
		writeShardError(rw, http.StatusBadRequest, err)
		return
	}
	pool, err := w.ensureRange(r, req)
	if err != nil {
		writeShardError(rw, http.StatusInternalServerError, err)
		return
	}
	var buf bytes.Buffer
	if err := pool.ExportRange(&buf, req.Lo, req.Hi); err != nil {
		writeShardError(rw, http.StatusInternalServerError, err)
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	if err := WriteFrame(rw, buf.Bytes()); err != nil {
		// Headers are gone; all we can do is log and drop the connection.
		w.logger.Warn("shard pool response failed", "err", err)
	}
}

// ensureRange returns a pool holding exactly global samples [Lo, Hi),
// served from the shard cache when possible and generated (then
// cached) otherwise. Deterministic streams make the two paths
// byte-identical, so a cache hit saves work and changes nothing else.
func (w *Worker) ensureRange(r *http.Request, req GenRequest) (*ric.Pool, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	g, part, err := w.instance(req.Instance)
	if err != nil {
		return nil, err
	}
	model, err := req.Instance.model()
	if err != nil {
		return nil, err
	}
	pool, err := ric.NewPool(g, part, ric.PoolOptions{Model: model, Seed: req.PoolSeed, Offset: req.Lo})
	if err != nil {
		return nil, err
	}
	base := poolcache.KeyFor(g, part, model, req.PoolSeed)
	// A miss, including a dropped corrupt entry, leaves pool empty.
	if w.cache.LoadShard(base, pool, req.Lo, req.Hi) {
		return pool, nil
	}
	if err := pool.EnsureCtx(r.Context(), req.Hi-req.Lo); err != nil {
		return nil, err
	}
	if err := w.cache.SaveShard(base, pool, req.Lo, req.Hi); err != nil {
		w.logger.Warn("shard cache save failed", "err", err)
	}
	return pool, nil
}

// instance returns the built (graph, partition) for spec, building at
// most once per spec (singleflight; concurrent requests wait).
func (w *Worker) instance(spec InstanceSpec) (*graph.Graph, *community.Partition, error) {
	key := spec.key()
	w.mu.Lock()
	if slot, ok := w.instances[key]; ok {
		w.mu.Unlock()
		<-slot.done
		return slot.g, slot.part, slot.err
	}
	slot := &instanceSlot{done: make(chan struct{})}
	w.instances[key] = slot
	w.mu.Unlock()

	slot.g, slot.part, slot.err = w.build(spec)
	if slot.err != nil {
		// Failed builds are not cached: a transient failure should not
		// poison the spec forever.
		w.mu.Lock()
		delete(w.instances, key)
		w.mu.Unlock()
	}
	close(slot.done)
	return slot.g, slot.part, slot.err
}

func decodeShardJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("shard: decode request: %w", err)
	}
	return nil
}

func writeShardJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

func writeShardError(rw http.ResponseWriter, status int, err error) {
	writeShardJSON(rw, status, map[string]string{"error": err.Error()})
}
