package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/poolcache"
	"imc/internal/ric"
)

// testBuild is the injected instance builder for tests: cheap,
// deterministic in spec.Seed, and independent across calls — two
// workers building the same spec get equal (not shared) objects,
// exactly like two real processes.
func testBuild(spec InstanceSpec) (*graph.Graph, *community.Partition, error) {
	g, err := gen.RandomDirected(25, 80, 0.5, spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	part, err := community.Random(25, 5, spec.Seed+1)
	if err != nil {
		return nil, nil, err
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	return g, part, nil
}

var testSpec = InstanceSpec{Dataset: "test", Scale: 1, Seed: 7}

// newTestWorker builds a worker over testBuild with a pool cache
// rooted at dir ("" disables it).
func newTestWorker(t *testing.T, dir string) *Worker {
	t.Helper()
	cfg := WorkerConfig{Build: testBuild}
	if dir != "" {
		cache, err := poolcache.Open(filepath.Join(dir, "cache"), poolcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = cache
	}
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func serveWorker(t *testing.T, w *Worker) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	w.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func postJSONT(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func fetchPool(t *testing.T, base string, req GenRequest) []byte {
	t.Helper()
	resp := postJSONT(t, base+PoolPath, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pool returned %s", resp.Status)
	}
	data, err := ReadFrame(resp.Body, maxPoolFrame)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// localExport generates [lo, hi) in-process and returns its IMCS bytes
// — the reference a worker's wire payload must equal.
func localExport(t *testing.T, lo, hi int, poolSeed uint64) []byte {
	t.Helper()
	g, part, err := testBuild(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ric.NewPool(g, part, ric.PoolOptions{Seed: poolSeed, Offset: lo})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnsureCtx(context.Background(), hi-lo); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.ExportRange(&buf, lo, hi); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorkerPoolMatchesLocalGeneration: the wire payload is the exact
// IMCS export a local offset pool produces, and a second request is a
// cache hit serving the same bytes.
func TestWorkerPoolMatchesLocalGeneration(t *testing.T) {
	w := newTestWorker(t, t.TempDir())
	ts := serveWorker(t, w)
	req := GenRequest{Instance: testSpec, PoolSeed: 42, Lo: 30, Hi: 90}
	want := localExport(t, req.Lo, req.Hi, req.PoolSeed)

	if got := fetchPool(t, ts.URL, req); !bytes.Equal(got, want) {
		t.Fatal("worker pool bytes differ from local generation")
	}
	if st := w.cache.Stats(); st.ShardHits != 0 || st.ShardMisses != 1 {
		t.Fatalf("first request: %+v, want one shard miss and no hit", st)
	}
	if got := fetchPool(t, ts.URL, req); !bytes.Equal(got, want) {
		t.Fatal("cached pool bytes differ from local generation")
	}
	if st := w.cache.Stats(); st.ShardHits != 1 || st.ShardMisses != 1 {
		t.Fatalf("second request: %+v, want it served from the cache", st)
	}
}

// TestWorkerRestartResumes: a restarted worker (same cache dir) serves
// the range from its cache, with identical bytes — finished ranges
// survive the process.
func TestWorkerRestartResumes(t *testing.T) {
	dir := t.TempDir()
	req := GenRequest{Instance: testSpec, PoolSeed: 11, Lo: 0, Hi: 50}

	ts1 := serveWorker(t, newTestWorker(t, dir))
	before := fetchPool(t, ts1.URL, req)
	ts1.Close()

	w2 := newTestWorker(t, dir)
	ts2 := serveWorker(t, w2)
	if after := fetchPool(t, ts2.URL, req); !bytes.Equal(before, after) {
		t.Fatal("restarted worker serves different bytes")
	}
	if st := w2.cache.Stats(); st.ShardHits != 1 || st.ShardMisses != 0 {
		t.Fatalf("restarted worker: %+v, want the range served from the cache", st)
	}
}

// TestWorkerWithoutDurability: no cache — every request regenerates,
// and the bytes are still identical (determinism does not depend on
// persistence).
func TestWorkerWithoutDurability(t *testing.T) {
	ts := serveWorker(t, newTestWorker(t, ""))
	req := GenRequest{Instance: testSpec, PoolSeed: 42, Lo: 10, Hi: 40}
	want := localExport(t, req.Lo, req.Hi, req.PoolSeed)
	for i := 0; i < 2; i++ {
		if got := fetchPool(t, ts.URL, req); !bytes.Equal(got, want) {
			t.Fatalf("cacheless worker request %d: bytes differ from local generation", i)
		}
	}
}

// TestWorkerRejectsBadRequests: invalid ranges, unknown models, and
// unparseable bodies are 4xx/5xx with JSON error bodies, never panics.
func TestWorkerRejectsBadRequests(t *testing.T) {
	ts := serveWorker(t, newTestWorker(t, ""))
	for name, req := range map[string]GenRequest{
		"negative lo":   {Instance: testSpec, Lo: -1, Hi: 10},
		"inverted":      {Instance: testSpec, Lo: 10, Hi: 5},
		"huge range":    {Instance: testSpec, Lo: 0, Hi: maxRangeWidth + 1},
		"unknown model": {Instance: InstanceSpec{Dataset: "test", Seed: 7, Model: "bogus"}, Lo: 0, Hi: 10},
	} {
		resp := postJSONT(t, ts.URL+PoolPath, req)
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s accepted", name)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(ts.URL+PoolPath, "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body returned %s", resp.Status)
	}
	resp.Body.Close()
}

// TestDiffusionModelRoundTrips pins that the spec's model string stays
// in sync with the diffusion enum it names.
func TestDiffusionModelRoundTrips(t *testing.T) {
	for _, m := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		got, err := (InstanceSpec{Model: m.String()}).model()
		if err != nil || got != m {
			t.Errorf("model %v round-trips to %v, %v", m, got, err)
		}
	}
	if _, err := (InstanceSpec{Model: fmt.Sprintf("Model(%d)", 9)}).model(); err == nil {
		t.Error("out-of-range model accepted")
	}
}
