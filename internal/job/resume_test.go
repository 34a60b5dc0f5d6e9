package job

import (
	"context"
	"encoding/binary"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"imc/internal/atomicio"
	"imc/internal/core"
	"imc/internal/ric"
)

// TestInterruptedJobResumesByteIdentical is the subsystem's contract
// test: a job interrupted mid-solve (after its first durable
// checkpoint) and re-run by a fresh store + pool — a simulated process
// restart — must produce exactly the result an uninterrupted run
// produces: same seeds in the same order, same benefit. This works
// because RIC sample i is always drawn from PRNG stream i of the job
// seed, so the resumed pool retraces the uninterrupted one sample for
// sample.
func TestInterruptedJobResumesByteIdentical(t *testing.T) {
	spec := testSpec(41)

	// Baseline: the same spec run start-to-finish with no interruption.
	baseStore := openTestStore(t, t.TempDir())
	baseJob, _, err := baseStore.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	basePool := newTestPool(t, baseStore)
	basePool.Start()
	if j := waitTerminal(t, baseStore, baseJob.ID); j.State != StateSucceeded {
		t.Fatalf("baseline state %s (%s)", j.State, j.Error)
	}
	baseline, err := baseStore.Result(baseJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	shutdownPool(t, basePool)

	// Interrupted run: the first durable checkpoint "kills the process" —
	// the hook cancels the pool's base context, so the worker classifies
	// the run as interrupted and the job returns to pending.
	dir := t.TempDir()
	s1 := openTestStore(t, dir)
	j1, _, err := s1.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	p1 := newTestPool(t, s1)
	fired := false
	p1.checkpointHook = func(string, core.Checkpoint) {
		if fired {
			return
		}
		fired = true
		p1.baseCancel()
	}
	p1.Start()

	deadline := time.Now().Add(60 * time.Second)
	for {
		j, err := s1.Get(j1.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == StatePending && j.Resumes == 1 {
			if j.Checkpoint == nil || j.Checkpoint.Samples < 1 {
				t.Fatalf("interrupted without a durable checkpoint: %+v", j.Checkpoint)
			}
			break
		}
		if j.State.Terminal() {
			t.Fatalf("job finished as %s instead of being interrupted", j.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never interrupted: %+v", j)
		}
		time.Sleep(5 * time.Millisecond)
	}
	shutdownPool(t, p1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh store and pool over the same directory. Resume-on-
	// boot enqueues the pending job; the worker restores the checkpoint
	// and finishes the solve.
	s2 := openTestStore(t, dir)
	p2 := newTestPool(t, s2)
	p2.Start()
	defer shutdownPool(t, p2)

	done := waitTerminal(t, s2, j1.ID)
	if done.State != StateSucceeded {
		t.Fatalf("resumed state %s (%s)", done.State, done.Error)
	}
	if done.Resumes != 1 {
		t.Fatalf("resumes %d, want 1", done.Resumes)
	}
	resumed, err := s2.Result(j1.ID)
	if err != nil {
		t.Fatal(err)
	}

	if len(resumed.Seeds) != len(baseline.Seeds) {
		t.Fatalf("seed count %d vs baseline %d", len(resumed.Seeds), len(baseline.Seeds))
	}
	for i := range resumed.Seeds {
		if resumed.Seeds[i] != baseline.Seeds[i] {
			t.Fatalf("seed[%d] = %d, baseline %d — resume diverged", i, resumed.Seeds[i], baseline.Seeds[i])
		}
	}
	if resumed.Benefit != baseline.Benefit {
		t.Fatalf("benefit %v vs baseline %v — resume diverged", resumed.Benefit, baseline.Benefit)
	}
	if resumed.TotalBenefit != baseline.TotalBenefit || resumed.Instance != baseline.Instance || resumed.Alg != baseline.Alg {
		t.Fatalf("result metadata drifted: %+v vs %+v", resumed, baseline)
	}
}

// TestV2CheckpointRestartsCold: a job whose checkpoint holds a pool
// saved by the previous reverse sampler (IMCP v2) cannot resume from
// it — ReadInto refuses the stream — so the worker drops it, restarts
// the solve from scratch, and returns exactly the seed set of a cold
// run.
func TestV2CheckpointRestartsCold(t *testing.T) {
	spec := testSpec(43)

	baseStore := openTestStore(t, t.TempDir())
	baseJob, _, err := baseStore.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	basePool := newTestPool(t, baseStore)
	basePool.Start()
	if j := waitTerminal(t, baseStore, baseJob.ID); j.State != StateSucceeded {
		t.Fatalf("baseline state %s (%s)", j.State, j.Error)
	}
	baseline, err := baseStore.Result(baseJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	shutdownPool(t, basePool)

	s := openTestStore(t, t.TempDir())
	j, _, err := s.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := testBuildInstance(j.Spec.InstanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := ric.NewPool(inst.G, inst.Part, ric.PoolOptions{Model: j.Spec.model(), Seed: j.Spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), 256); err != nil {
		t.Fatal(err)
	}
	// Write a v3 checkpoint, then re-frame it with the embedded pool's
	// version word set to 2.
	path := s.checkpointPath(j.ID)
	if err := writeCheckpointFile(path, j.Spec, core.Checkpoint{Pool: pool, Doublings: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := data[:len(data)-4]
	poolAt := ckptHeaderSize + int(binary.LittleEndian.Uint32(body[12:16]))
	binary.LittleEndian.PutUint32(body[poolAt+4:poolAt+8], 2)
	if err := atomicio.WriteCRCStream(path, func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadCheckpoint(j.ID, inst); err == nil || !strings.Contains(err.Error(), "format v2") {
		t.Fatalf("v2 checkpoint pool: err = %v, want the v2 upgrade error", err)
	}

	p := newTestPool(t, s)
	p.Start()
	defer shutdownPool(t, p)
	if done := waitTerminal(t, s, j.ID); done.State != StateSucceeded {
		t.Fatalf("state %s (%s)", done.State, done.Error)
	}
	got, err := s.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Seeds, baseline.Seeds) || got.Benefit != baseline.Benefit {
		t.Fatalf("restart after a v2 checkpoint gave seeds %v (benefit %v), cold run %v (benefit %v)",
			got.Seeds, got.Benefit, baseline.Seeds, baseline.Benefit)
	}
}
