package serve

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"imc/internal/expt"
	"imc/internal/job"
)

// stopCases are the stop reasons a reply must carry: an MB solve capped
// at 64 samples stops at the sample cap, a solve with room certifies,
// and the KS baseline, which runs no IMCAF loop, reports neither
// stopped nor samples.
var stopCases = []struct {
	alg        string
	maxSamples int
	want       []string
}{
	{"MB", 64, []string{"sample-cap"}},
	{"MAF", 1 << 16, []string{"stop-condition", "psi-cap"}},
	{"KS", 0, []string{""}},
}

// checkStop checks one reply's stopped and samples fields against a
// stopCases row; body is the raw reply.
func checkStop(t *testing.T, alg string, maxSamples int, want []string, stopped string, samples int, body string) {
	t.Helper()
	if !slices.Contains(want, stopped) {
		t.Fatalf("%s: stopped %q, want one of %q", alg, stopped, want)
	}
	if want[0] == "" {
		if strings.Contains(body, `"stopped"`) || strings.Contains(body, `"samples"`) {
			t.Fatalf("%s reply carries IMCAF fields: %s", alg, body)
		}
		return
	}
	if samples < 1 || samples > maxSamples {
		t.Fatalf("%s: samples %d outside [1, %d]", alg, samples, maxSamples)
	}
}

// TestSolveReportsStopReason: /solve tells a certified answer from a
// best-effort one.
func TestSolveReportsStopReason(t *testing.T) {
	ts := newTestServer(t)
	inst := InstanceRequest{Dataset: "facebook", Scale: 0.03, Bounded: true, Seed: 1}
	for _, tc := range stopCases {
		var out SolveResponse
		status, body := postJSON(t, ts.URL+"/solve", SolveRequest{InstanceRequest: inst, Alg: tc.alg, K: 4, MaxSamples: tc.maxSamples}, &out)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.alg, status, body)
		}
		checkStop(t, tc.alg, tc.maxSamples, tc.want, out.Stopped, out.Samples, body)
	}
}

// TestJobReportsStopReason: a job's result carries the same stop
// reason and pool size as /solve.
func TestJobReportsStopReason(t *testing.T) {
	ts := newJobTestServer(t, true)
	for _, tc := range stopCases {
		spec := testJobSpec(7)
		spec.Alg, spec.MaxSamples = tc.alg, tc.maxSamples
		var created job.Job
		if status, body := doJSON(t, "POST", ts.URL+"/v1/jobs", nil, JobSubmitRequest{Spec: spec}, &created); status != http.StatusCreated {
			t.Fatalf("%s: submit status %d: %s", tc.alg, status, body)
		}
		deadline := time.Now().Add(60 * time.Second)
		var got job.Job
		for !got.State.Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: job stuck in %s", tc.alg, got.State)
			}
			time.Sleep(5 * time.Millisecond)
			if status, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+created.ID, nil, nil, &got); status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.alg, status, body)
			}
		}
		if got.State != job.StateSucceeded {
			t.Fatalf("%s: state %s (%s)", tc.alg, got.State, got.Error)
		}
		var res job.Result
		status, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+created.ID+"/result", nil, nil, &res)
		if status != http.StatusOK {
			t.Fatalf("%s: result status %d: %s", tc.alg, status, body)
		}
		checkStop(t, tc.alg, tc.maxSamples, tc.want, res.Stopped, res.Samples, body)
	}
}

// TestMaxSamplesCapRejected: /solve and job submission refuse a
// maxSamples above expt.MaxSamplesLimit with a 400 that names the cap,
// before any instance is built or job queued.
func TestMaxSamplesCapRejected(t *testing.T) {
	capText := fmt.Sprint(expt.MaxSamplesLimit)
	ts := newTestServer(t)
	status, body := postJSON(t, ts.URL+"/solve", SolveRequest{
		InstanceRequest: InstanceRequest{Dataset: "facebook", Scale: 0.03, Bounded: true, Seed: 1},
		Alg:             "MAF", K: 4, MaxSamples: 1 << 30,
	}, nil)
	if status != http.StatusBadRequest || !strings.Contains(body, capText) {
		t.Fatalf("/solve maxSamples 2^30: status %d: %s", status, body)
	}

	jts := newJobTestServer(t, false)
	spec := testJobSpec(1)
	spec.MaxSamples = 1 << 30
	status, body = doJSON(t, "POST", jts.URL+"/v1/jobs", nil, JobSubmitRequest{Spec: spec}, nil)
	if status != http.StatusBadRequest || !strings.Contains(body, capText) {
		t.Fatalf("job maxSamples 2^30: status %d: %s", status, body)
	}
	var list []job.Job
	if status, _ := doJSON(t, "GET", jts.URL+"/v1/jobs", nil, nil, &list); status != http.StatusOK || len(list) != 0 {
		t.Fatalf("a refused spec was queued: %+v", list)
	}
}
