package job

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentSubmitsSurviveReopen hammers Submit and transitions
// from many goroutines, then reopens the store: every job a caller was
// told about must replay with the same terminal state. This is the
// durability contract the staged group-commit must preserve — a Submit
// returns only after its record is fsynced, even when the fsync it
// rode on was paid by a different goroutine.
func TestConcurrentSubmitsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)

	const workers = 8
	const perWorker = 6
	ids := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				j, created, err := s.Submit(testSpec(uint64(w*perWorker+i+1)), fmt.Sprintf("key-%d-%d", w, i))
				if err != nil || !created {
					t.Errorf("worker %d submit %d: created=%v err=%v", w, i, created, err)
					return
				}
				// Walk half the jobs to a terminal state so replay must
				// reproduce transitions, not just submissions.
				if i%2 == 0 {
					if _, err := s.MarkRunning(j.ID); err != nil {
						t.Errorf("mark running %s: %v", j.ID, err)
						return
					}
					if err := s.MarkFailed(j.ID, "synthetic"); err != nil {
						t.Errorf("mark failed %s: %v", j.ID, err)
						return
					}
				}
				ids[w] = append(ids[w], j.ID)
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := openTestStore(t, dir)
	for w, list := range ids {
		for i, id := range list {
			j, err := re.Get(id)
			if err != nil {
				t.Fatalf("job %s (worker %d #%d) lost across reopen: %v", id, w, i, err)
			}
			want := StatePending
			if i%2 == 0 {
				want = StateFailed
			}
			if j.State != want {
				t.Errorf("job %s replayed as %s, want %s", id, j.State, want)
			}
		}
	}
	if got := len(re.List()); got != workers*perWorker {
		t.Errorf("reopened store has %d jobs, want %d", got, workers*perWorker)
	}
}

// TestCommitPiggyback checks the group-commit fast path directly: after
// one commit syncs the buffer, an earlier ticket's commit must return
// without touching the file again.
func TestCommitPiggyback(t *testing.T) {
	dir := t.TempDir()
	jl, err := openJournalAt(dir+"/journal.log", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()

	t1, err := jl.Stage(journalRecord{Op: opSubmit, ID: "j1", At: testEpoch})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := jl.Stage(journalRecord{Op: opSubmit, ID: "j2", At: testEpoch})
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Commit(t2); err != nil {
		t.Fatal(err)
	}
	jl.mu.Lock()
	synced := jl.synced
	jl.mu.Unlock()
	if synced != t2 {
		t.Fatalf("synced = %d after committing ticket %d", synced, t2)
	}
	if err := jl.Commit(t1); err != nil {
		t.Fatalf("piggybacked commit: %v", err)
	}

	// Both records must replay.
	var got []string
	if _, err := replayJournal(dir+"/journal.log", func(rec journalRecord) error {
		got = append(got, rec.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "j1" || got[1] != "j2" {
		t.Fatalf("replayed %v, want [j1 j2]", got)
	}
}
