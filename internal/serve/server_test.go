package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"net/http"
	"net/http/httptest"
	"testing"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	// Plenty of in-flight slots: these tests exercise handler behavior,
	// not load shedding (TestLoadShedding pins MaxInflight itself).
	ts := httptest.NewServer(NewWithOptions(nil, nil, Config{MaxInflight: 64}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestDatasets(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []datasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 || rows[0].Name != "facebook" {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestSolveEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	var out SolveResponse
	status, body := postJSON(t, ts.URL+"/solve", SolveRequest{
		InstanceRequest: InstanceRequest{Dataset: "facebook", Scale: 0.03, Bounded: true, Seed: 1},
		Alg:             "MAF",
		K:               4,
		MaxSamples:      1 << 12,
	}, &out)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if len(out.Seeds) != 4 {
		t.Fatalf("seeds = %v", out.Seeds)
	}
	if out.Benefit < 0 || out.Benefit > out.TotalBenefit {
		t.Fatalf("benefit %g out of [0, %g]", out.Benefit, out.TotalBenefit)
	}
	if out.Alg != "MAF" {
		t.Fatalf("alg echo %q", out.Alg)
	}
}

func TestSolveValidation(t *testing.T) {
	ts := newTestServer(t)
	// Bad k.
	status, _ := postJSON(t, ts.URL+"/solve", SolveRequest{K: 0}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("k=0 status %d", status)
	}
	// Unknown algorithm.
	status, body := postJSON(t, ts.URL+"/solve", SolveRequest{
		InstanceRequest: InstanceRequest{Dataset: "facebook", Scale: 0.03},
		Alg:             "NOPE", K: 2, MaxSamples: 1 << 10,
	}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("bad alg status %d: %s", status, body)
	}
	// Unknown dataset.
	status, _ = postJSON(t, ts.URL+"/solve", SolveRequest{
		InstanceRequest: InstanceRequest{Dataset: "zzz"},
		K:               2,
	}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("bad dataset status %d", status)
	}
	// Unknown field rejected.
	resp, err := http.Post(ts.URL+"/solve", "application/json",
		bytes.NewReader([]byte(`{"bogus": 1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status %d", resp.StatusCode)
	}
}

func TestEstimateEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	var out EstimateResponse
	status, body := postJSON(t, ts.URL+"/estimate", EstimateRequest{
		InstanceRequest: InstanceRequest{Dataset: "facebook", Scale: 0.03, Bounded: true, Seed: 1},
		Seeds:           []int32{0, 1, 2},
		Iterations:      500,
	}, &out)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if out.Spread < 3 {
		t.Fatalf("spread %g below seed count", out.Spread)
	}
	if out.Benefit < 0 || out.Benefit > out.TotalBenefit {
		t.Fatalf("benefit %g out of range", out.Benefit)
	}
	// Empty seeds rejected.
	status, _ = postJSON(t, ts.URL+"/estimate", EstimateRequest{
		InstanceRequest: InstanceRequest{Dataset: "facebook", Scale: 0.03},
	}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("empty seeds status %d", status)
	}
}

func TestBudgetedEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	var out BudgetedResponse
	status, body := postJSON(t, ts.URL+"/budgeted", BudgetedRequest{
		InstanceRequest: InstanceRequest{Dataset: "facebook", Scale: 0.03, Bounded: true, Seed: 1},
		Budget:          5,
		NumSamples:      1000,
	}, &out)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if out.Spent > 5 {
		t.Fatalf("spent %g exceeds budget", out.Spent)
	}
	if len(out.Seeds) == 0 {
		t.Fatal("no seeds selected")
	}
	// Bad budget rejected.
	status, _ = postJSON(t, ts.URL+"/budgeted", BudgetedRequest{
		InstanceRequest: InstanceRequest{Dataset: "facebook", Scale: 0.03},
	}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("budget=0 status %d", status)
	}
}

func TestTraceEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	var out TraceResponse
	status, body := postJSON(t, ts.URL+"/trace", TraceRequest{
		InstanceRequest: InstanceRequest{Dataset: "facebook", Scale: 0.03, Seed: 1},
		Seeds:           []int32{0, 1},
	}, &out)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if len(out.Rounds) == 0 || out.Rounds[0].Round != 0 {
		t.Fatalf("rounds = %+v", out.Rounds)
	}
	if len(out.Rounds[0].Activated) != 2 {
		t.Fatalf("round 0 activations = %v, want the 2 seeds", out.Rounds[0].Activated)
	}
	if out.Total < 2 {
		t.Fatalf("total = %d", out.Total)
	}
	// Empty seeds rejected.
	status, _ = postJSON(t, ts.URL+"/trace", TraceRequest{
		InstanceRequest: InstanceRequest{Dataset: "facebook", Scale: 0.03},
	}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("empty seeds status %d", status)
	}
}

func TestInstanceCaching(t *testing.T) {
	s := NewWithOptions(nil, nil, Config{})
	ctx := context.Background()
	req := InstanceRequest{Dataset: "facebook", Scale: 0.03, Seed: 5}
	a, err := s.instance(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.instance(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical request not served from cache")
	}
	other, err := s.instance(ctx, InstanceRequest{Dataset: "facebook", Scale: 0.03, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Fatal("different seed shared a cached instance")
	}
}

// TestConcurrentRequests hammers the cached-instance path from many
// goroutines; run with -race to certify the cache locking.
func TestConcurrentRequests(t *testing.T) {
	ts := newTestServer(t)
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			var out SolveResponse
			status, body := postJSONNoFatal(ts.URL+"/solve", SolveRequest{
				InstanceRequest: InstanceRequest{Dataset: "facebook", Scale: 0.03, Seed: 1},
				Alg:             "MAF",
				K:               2 + w%3,
				MaxSamples:      1 << 10,
			}, &out)
			if status != http.StatusOK {
				errs <- fmt.Errorf("worker %d: status %d: %s", w, status, body)
				return
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func postJSONNoFatal(url string, body any, out any) (int, string) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err.Error()
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err.Error()
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			return 0, err.Error()
		}
	}
	return resp.StatusCode, buf.String()
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// Generate one success and one error.
	if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
		resp.Body.Close()
	} else {
		t.Fatal(err)
	}
	status, _ := postJSON(t, ts.URL+"/solve", SolveRequest{K: 0}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("setup error request status %d", status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests["/healthz"] < 1 {
		t.Fatalf("healthz requests = %d", m.Requests["/healthz"])
	}
	if m.Errors["/solve"] < 1 {
		t.Fatalf("solve errors = %d", m.Errors["/solve"])
	}
	if m.UptimeSeconds < 0 {
		t.Fatal("negative uptime")
	}
}

func TestMethodRouting(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz status %d", resp.StatusCode)
	}
}
