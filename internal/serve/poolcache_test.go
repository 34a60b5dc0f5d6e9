package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"imc/internal/expt"
	"imc/internal/poolcache"
)

// TestInstanceCacheEvictsOneEntry: at capacity, inserting a new
// instance evicts exactly one resident entry — not the whole cache, and
// never the key being inserted. (The previous clear-all eviction threw
// away every warm instance on each miss past capacity.)
func TestInstanceCacheEvictsOneEntry(t *testing.T) {
	s := NewWithOptions(nil, nil, Config{})
	s.buildInstance = func(cfg expt.InstanceConfig) (*expt.Instance, error) {
		return &expt.Instance{Name: cfg.Dataset}, nil
	}
	for i := 0; i < s.maxCached; i++ {
		if _, err := s.instance(context.Background(), instReq(fmt.Sprintf("ds-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	full := len(s.cache)
	s.mu.Unlock()
	if full != s.maxCached {
		t.Fatalf("warm cache holds %d entries, want %d", full, s.maxCached)
	}

	// One past capacity: exactly one victim.
	if _, err := s.instance(context.Background(), instReq("overflow")); err != nil {
		t.Fatal(err)
	}
	overflowKey := fmt.Sprintf("%s|%g|%v|%d|%v|%d", "overflow", 0.1, expt.Louvain, 0, false, 0)
	s.mu.Lock()
	after := len(s.cache)
	_, newPresent := s.cache[overflowKey]
	s.mu.Unlock()
	if after != s.maxCached {
		t.Fatalf("cache holds %d entries after overflow insert, want %d (single-entry eviction)", after, s.maxCached)
	}
	if !newPresent {
		t.Fatal("the inserted key was evicted")
	}

	// A hit on a resident key must never evict anything.
	if _, err := s.instance(context.Background(), instReq("overflow")); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	hitLen := len(s.cache)
	s.mu.Unlock()
	if hitLen != s.maxCached {
		t.Fatalf("cache shrank to %d on a hit", hitLen)
	}
}

// TestSolveColdWarmIdentical is the end-to-end determinism pin: a cold
// /solve (empty pool cache) and a warm repeat of the same request
// return the same seed set and benefit, the warm run adopting its
// samples from the cache; /metrics shows the traffic and /estimate
// exposes the cached-pool benefit.
func TestSolveColdWarmIdentical(t *testing.T) {
	cache, err := poolcache.Open(t.TempDir(), poolcache.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(nil, nil, Config{MaxInflight: 64, PoolCache: cache})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	req := SolveRequest{
		InstanceRequest: InstanceRequest{Dataset: "facebook", Scale: 0.03, Bounded: true, Seed: 1},
		Alg:             "MAF",
		K:               4,
		MaxSamples:      1 << 12,
	}
	var cold SolveResponse
	if status, body := postJSON(t, ts.URL+"/solve", req, &cold); status != http.StatusOK {
		t.Fatalf("cold solve: status %d: %s", status, body)
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after cold solve: %+v", st)
	}
	if st.Saves == 0 || st.Entries != 1 {
		t.Fatalf("cold solve did not store its pool: %+v", st)
	}

	var warm SolveResponse
	if status, body := postJSON(t, ts.URL+"/solve", req, &warm); status != http.StatusOK {
		t.Fatalf("warm solve: status %d: %s", status, body)
	}
	st = cache.Stats()
	if st.Hits != 1 {
		t.Fatalf("warm solve missed the cache: %+v", st)
	}
	if st.Extends == 0 || st.AdoptedSamples == 0 {
		t.Fatalf("warm solve adopted nothing: %+v", st)
	}
	if !reflect.DeepEqual(cold.Seeds, warm.Seeds) {
		t.Fatalf("seed sets differ: cold %v, warm %v", cold.Seeds, warm.Seeds)
	}
	if cold.Benefit != warm.Benefit {
		t.Fatalf("benefits differ: cold %g, warm %g", cold.Benefit, warm.Benefit)
	}

	// /metrics surfaces the same counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.PoolCache == nil {
		t.Fatal("/metrics poolCache missing with caching enabled")
	}
	if m.PoolCache.Hits != st.Hits || m.PoolCache.Entries != st.Entries {
		t.Fatalf("/metrics poolCache %+v does not match cache %+v", m.PoolCache, st)
	}

	// /estimate over the same (instance, seed) sees the cached pool.
	var est EstimateResponse
	status, body := postJSON(t, ts.URL+"/estimate", EstimateRequest{
		InstanceRequest: req.InstanceRequest,
		Seeds:           cold.Seeds,
		Iterations:      500,
	}, &est)
	if status != http.StatusOK {
		t.Fatalf("estimate: status %d: %s", status, body)
	}
	if est.PoolBenefit == nil || est.PoolSamples == 0 {
		t.Fatalf("estimate did not expose the cached pool: %+v", est)
	}

	// Without a cache, /metrics omits the block and /estimate stays
	// silent about pools.
	plain := newTestServer(t)
	resp2, err := http.Get(plain.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var m2 Metrics
	if err := json.NewDecoder(resp2.Body).Decode(&m2); err != nil {
		t.Fatal(err)
	}
	if m2.PoolCache != nil {
		t.Fatal("/metrics poolCache present with caching disabled")
	}
}

// TestSeedIDsOutOfRangeRejected: /estimate and /trace answer 400
// "validation" for a seed id outside [0, n), with and without a pool
// cache, and with the cache holding the key's snapshot — the state in
// which the pool's CHat used to index past its per-node runs and panic
// the handler.
func TestSeedIDsOutOfRangeRejected(t *testing.T) {
	inst := InstanceRequest{Dataset: "karate", Scale: 1, Bounded: true, Seed: 1}
	for _, warm := range []bool{false, true} {
		cfg := Config{MaxInflight: 64}
		if warm {
			cache, err := poolcache.Open(t.TempDir(), poolcache.Options{Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			cfg.PoolCache = cache
		}
		ts := httptest.NewServer(NewWithOptions(nil, nil, cfg).Handler())
		t.Cleanup(ts.Close)
		if warm {
			solve := SolveRequest{InstanceRequest: inst, Alg: "MAF", K: 2, MaxSamples: 1 << 10}
			if status, body := postJSON(t, ts.URL+"/solve", solve, nil); status != http.StatusOK {
				t.Fatalf("solve: status %d: %s", status, body)
			}
			if st := cfg.PoolCache.Stats(); st.Entries != 1 {
				t.Fatalf("solve left no snapshot in the cache: %+v", st)
			}
		}
		for _, bad := range []int32{-1, 34, 1 << 20} {
			for path, body := range map[string]any{
				"/estimate": EstimateRequest{InstanceRequest: inst, Seeds: []int32{0, bad}, Iterations: 10},
				"/trace":    TraceRequest{InstanceRequest: inst, Seeds: []int32{bad, 0}},
			} {
				status, resp := postJSON(t, ts.URL+path, body, nil)
				if status != http.StatusBadRequest || !strings.Contains(resp, `"validation"`) {
					t.Errorf("warm=%v %s seed %d: status %d %s, want 400 validation", warm, path, bad, status, resp)
				}
			}
		}
		// The last valid id still answers.
		var est EstimateResponse
		if status, body := postJSON(t, ts.URL+"/estimate", EstimateRequest{InstanceRequest: inst, Seeds: []int32{33}, Iterations: 10}, &est); status != http.StatusOK {
			t.Fatalf("warm=%v estimate seed 33: status %d: %s", warm, status, body)
		}
		if warm != (est.PoolBenefit != nil) {
			t.Fatalf("warm=%v: poolBenefit %v", warm, est.PoolBenefit)
		}
	}
}
