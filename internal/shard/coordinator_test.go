package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"imc/internal/ric"
)

// quietCoordinator builds a coordinator whose retry warnings don't spam
// the test log.
func quietCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	return NewCoordinator(CoordinatorConfig{
		Logger: slog.New(slog.NewTextHandler(nullWriter{}, nil)),
	})
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// startWorkers boots n independent workers (each with its own cache
// dir, like separate machines) and registers them with c.
func startWorkers(t *testing.T, c *Coordinator, n int) []*httptest.Server {
	t.Helper()
	servers := make([]*httptest.Server, n)
	for i := range servers {
		servers[i] = serveWorker(t, newTestWorker(t, t.TempDir()))
		c.Register(servers[i].URL)
	}
	return servers
}

// flatSaveBytes generates [0, theta) locally and returns Save's bytes —
// the reference every distributed grow must reproduce.
func flatSaveBytes(t *testing.T, theta int, poolSeed uint64) []byte {
	t.Helper()
	g, part, err := testBuild(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ric.NewPool(g, part, ric.PoolOptions{Seed: poolSeed})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnsureCtx(context.Background(), theta); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func grownSaveBytes(t *testing.T, c *Coordinator, theta int, poolSeed uint64) []byte {
	t.Helper()
	g, part, err := testBuild(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ric.NewPool(g, part, ric.PoolOptions{Seed: poolSeed})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Grow(context.Background(), testSpec, p, theta); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGrowWorkerCountIndependence: the pool a coordinator assembles
// from 1, 2, or 4 workers is byte-identical to local generation — the
// tentpole determinism pin at the process level.
func TestGrowWorkerCountIndependence(t *testing.T) {
	const theta, poolSeed = 400, 42
	want := flatSaveBytes(t, theta, poolSeed)
	for _, n := range []int{1, 2, 4} {
		c := quietCoordinator(t)
		startWorkers(t, c, n)
		if got := grownSaveBytes(t, c, theta, poolSeed); !bytes.Equal(got, want) {
			t.Errorf("N=%d workers: grown pool differs from local generation", n)
		}
		m := c.Metrics()
		if m.WorkersAlive != n || m.Merges != 1 || m.LocalFallbacks != 0 {
			t.Errorf("N=%d workers: metrics %+v", n, m)
		}
	}
}

// TestGrowExtendsPartialPool: growing a pool that already holds a
// prefix dispatches only the missing tail and still matches local
// generation byte-for-byte.
func TestGrowExtendsPartialPool(t *testing.T) {
	const theta, poolSeed = 300, 9
	c := quietCoordinator(t)
	startWorkers(t, c, 2)
	g, part, err := testBuild(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ric.NewPool(g, part, ric.PoolOptions{Seed: poolSeed})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnsureCtx(context.Background(), 120); err != nil {
		t.Fatal(err)
	}
	if err := c.Grow(context.Background(), testSpec, p, theta); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), flatSaveBytes(t, theta, poolSeed)) {
		t.Fatal("partial-pool grow diverged from local generation")
	}
}

// TestGrowSurvivesWorkerDeath: killing a worker mid-registry reassigns
// its ranges to the survivor; the result is unchanged and the failure
// is visible in the metrics.
func TestGrowSurvivesWorkerDeath(t *testing.T) {
	const theta, poolSeed = 240, 3
	c := quietCoordinator(t)
	servers := startWorkers(t, c, 2)
	servers[0].Close() // dies before the grow ever reaches it

	want := flatSaveBytes(t, theta, poolSeed)
	if got := grownSaveBytes(t, c, theta, poolSeed); !bytes.Equal(got, want) {
		t.Fatal("grow with a dead worker diverged from local generation")
	}
	m := c.Metrics()
	if m.Retries == 0 {
		t.Errorf("no retries recorded after a worker death: %+v", m)
	}
	if m.WorkersAlive != 1 || m.WorkersRegistered != 2 {
		t.Errorf("registry after death: %+v", m)
	}

	// The dead worker restarts (same URL is gone; a fresh process joins)
	// and re-registration revives rotation.
	replacement := serveWorker(t, newTestWorker(t, t.TempDir()))
	c.Register(replacement.URL)
	if got := grownSaveBytes(t, c, theta, poolSeed); !bytes.Equal(got, want) {
		t.Fatal("grow after replacement joined diverged from local generation")
	}
}

// TestGrowDegradesToLocal: with no workers at all, Grow is exactly
// EnsureCtx — same bytes, one recorded fallback. A nil coordinator
// degrades the same way.
func TestGrowDegradesToLocal(t *testing.T) {
	const theta, poolSeed = 150, 21
	want := flatSaveBytes(t, theta, poolSeed)
	c := quietCoordinator(t)
	if got := grownSaveBytes(t, c, theta, poolSeed); !bytes.Equal(got, want) {
		t.Fatal("workerless grow diverged from local generation")
	}
	if m := c.Metrics(); m.LocalFallbacks == 0 {
		t.Errorf("workerless grow recorded no fallback: %+v", m)
	}
	if got := grownSaveBytes(t, (*Coordinator)(nil), theta, poolSeed); !bytes.Equal(got, want) {
		t.Fatal("nil-coordinator grow diverged from local generation")
	}
}

// TestGrowRecoversFromTruncatedPayload: a worker whose export is cut
// short inside an intact CRC frame must not leave a damaged sample in
// the pool. The failed import leaves the pool as it was, so Grow's
// local completion regenerates the range and the result is
// byte-identical to local generation.
func TestGrowRecoversFromTruncatedPayload(t *testing.T) {
	const lo, theta, poolSeed = 40, 80, 11
	export := localExport(t, lo, theta, poolSeed)
	p, c := growFromPayload(t, export[:len(export)-3], lo, theta, poolSeed)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), flatSaveBytes(t, theta, poolSeed)) {
		t.Fatal("grow after a truncated worker payload diverged from local generation")
	}
	if m := c.Metrics(); m.LocalFallbacks != 1 {
		t.Errorf("truncated payload recorded %d local fallbacks, want 1", m.LocalFallbacks)
	}
}

// TestGrowCorruptRangeBeforeEarlierLands: ranges decode as they
// arrive, so range 1's corrupt payload is found while range 0 is still
// in flight. Range 0 must still fold first, and the pool, a valid
// prefix, completes locally, byte-identical to local generation.
func TestGrowCorruptRangeBeforeEarlierLands(t *testing.T) {
	const lo, theta, poolSeed = 40, 120, 11
	ranges := SplitRanges(lo, theta, 2)
	first := localExport(t, ranges[0].Lo, ranges[0].Hi, poolSeed)
	later := localExport(t, ranges[1].Lo, ranges[1].Hi, poolSeed)
	corrupt := later[:len(later)-3]
	laterServed := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PoolPath, func(rw http.ResponseWriter, r *http.Request) {
		var req GenRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
			return
		}
		payload := corrupt
		if req.Lo == ranges[0].Lo {
			select {
			case <-laterServed:
			case <-time.After(10 * time.Second):
				t.Error("range 1 was never requested")
			}
			payload = first
		}
		if err := WriteFrame(rw, payload); err != nil {
			t.Error(err)
		}
		if req.Lo != ranges[0].Lo {
			rw.(http.Flusher).Flush()
			close(laterServed)
		}
	})
	c := quietCoordinator(t)
	for i := 0; i < 2; i++ {
		worker := httptest.NewServer(mux)
		t.Cleanup(worker.Close)
		c.Register(worker.URL)
	}
	g, part, err := testBuild(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ric.NewPool(g, part, ric.PoolOptions{Seed: poolSeed})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnsureCtx(context.Background(), lo); err != nil {
		t.Fatal(err)
	}
	if err := c.Grow(context.Background(), testSpec, p, theta); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), flatSaveBytes(t, theta, poolSeed)) {
		t.Fatal("grow after a corrupt later range diverged from local generation")
	}
	if m := c.Metrics(); m.LocalFallbacks != 1 || m.Merges != 0 {
		t.Errorf("corrupt later range recorded %d local fallbacks and %d merges, want 1 and 0", m.LocalFallbacks, m.Merges)
	}
}

// growFromPayload grows a seed-poolSeed pool from lo to theta samples
// through a coordinator whose one worker answers every range request
// with payload, and returns the pool and the coordinator.
func growFromPayload(t *testing.T, payload []byte, lo, theta int, poolSeed uint64) (*ric.Pool, *Coordinator) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PoolPath, func(rw http.ResponseWriter, r *http.Request) {
		if err := WriteFrame(rw, payload); err != nil {
			t.Error(err)
		}
	})
	worker := httptest.NewServer(mux)
	t.Cleanup(worker.Close)
	c := quietCoordinator(t)
	c.Register(worker.URL)

	g, part, err := testBuild(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ric.NewPool(g, part, ric.PoolOptions{Seed: poolSeed})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnsureCtx(context.Background(), lo); err != nil {
		t.Fatal(err)
	}
	if err := c.Grow(context.Background(), testSpec, p, theta); err != nil {
		t.Fatal(err)
	}
	return p, c
}

// TestGrowRejectsOverlongExport: a worker that answers [40, 80) with an
// export of [40, 90) must not grow the pool past its target. The import
// is refused before anything is staged, so Grow's local completion
// regenerates [40, 80) and the result is byte-identical to local
// generation.
func TestGrowRejectsOverlongExport(t *testing.T) {
	const lo, theta, poolSeed = 40, 80, 11
	p, c := growFromPayload(t, localExport(t, lo, theta+10, poolSeed), lo, theta, poolSeed)
	if p.NumSamples() != theta {
		t.Fatalf("grow left %d samples, want %d", p.NumSamples(), theta)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), flatSaveBytes(t, theta, poolSeed)) {
		t.Fatal("grow after an overlong worker export diverged from local generation")
	}
	if m := c.Metrics(); m.LocalFallbacks != 1 {
		t.Errorf("overlong export recorded %d local fallbacks, want 1", m.LocalFallbacks)
	}
}

// TestGrowRejectsV1Export: a worker still on the previous sampler
// answers with an IMCS v1 range. The import refuses it, and Grow
// completes the pool locally, byte-identical to local generation.
func TestGrowRejectsV1Export(t *testing.T) {
	const lo, theta, poolSeed = 40, 80, 11
	v1 := localExport(t, lo, theta, poolSeed)
	v1[4], v1[5], v1[6], v1[7] = 1, 0, 0, 0
	p, c := growFromPayload(t, v1, lo, theta, poolSeed)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), flatSaveBytes(t, theta, poolSeed)) {
		t.Fatal("grow after a v1 worker export diverged from local generation")
	}
	if m := c.Metrics(); m.LocalFallbacks != 1 {
		t.Errorf("v1 export recorded %d local fallbacks, want 1", m.LocalFallbacks)
	}
}

// TestJoinRegistersWorker: the join handshake registers and revives.
func TestJoinRegistersWorker(t *testing.T) {
	c := quietCoordinator(t)
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+JoinPath, c.HandleJoin)
	coord := httptest.NewServer(mux)
	defer coord.Close()

	worker := serveWorker(t, newTestWorker(t, ""))
	if err := Join(context.Background(), nil, coord.URL, worker.URL); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.WorkersRegistered != 1 || m.WorkersAlive != 1 {
		t.Fatalf("after join: %+v", m)
	}
	// A dead mark is cleared by the next heartbeat join.
	c.noteFailure(worker.URL, false)
	if m := c.Metrics(); m.WorkersAlive != 0 {
		t.Fatalf("after failure: %+v", m)
	}
	if err := Join(context.Background(), nil, coord.URL, worker.URL); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.WorkersAlive != 1 {
		t.Fatalf("after rejoin: %+v", m)
	}
	// Garbage advertise addresses are refused.
	if err := Join(context.Background(), nil, coord.URL, "not-a-url"); err == nil {
		t.Fatal("non-URL advertise accepted")
	}
}
