package job

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"imc/internal/atomicio"
	"imc/internal/clock"
	"imc/internal/core"
	"imc/internal/expt"
	"imc/internal/ric"
)

// Store is the disk-backed job registry: all metadata flows through
// the append-only journal, large blobs (checkpoints, results) sit in
// per-job side files, and the whole state is rebuilt by replay on Open.
// All methods are safe for concurrent use.
type Store struct {
	dir string     //imc:guardedby immutable
	now clock.Func //imc:guardedby immutable

	mu    sync.Mutex
	jl    *journal          //imc:guardedby mu
	jobs  map[string]*Job   //imc:guardedby mu
	order []string          //imc:guardedby mu — job IDs in submission order
	byKey map[string]string //imc:guardedby mu — idempotency key → job ID
	seq   int               //imc:guardedby mu
}

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("job: not found")

// Open loads (or initializes) a store in dir. Jobs that were running
// when the previous process died are returned to pending with their
// resume counter bumped — their latest checkpoint is still on disk, so
// the next worker to pick them up continues where they stopped. now
// supplies timestamps (nil means the wall clock).
func Open(dir string, now clock.Func) (*Store, error) {
	if dir == "" {
		return nil, errors.New("job: store directory must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("job: create store dir: %w", err)
	}
	s := &Store{
		dir:   dir,
		now:   clock.OrWall(now),
		jobs:  make(map[string]*Job),
		byKey: make(map[string]string),
	}
	path := s.journalPath()
	intact, err := replayJournal(path, s.apply)
	if err != nil {
		return nil, err
	}
	if s.jl, err = openJournalAt(path, intact); err != nil {
		return nil, err
	}
	// Crash recovery: a "running" job's worker no longer exists. Journal
	// the demotion so the next replay agrees.
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State != StateRunning {
			continue
		}
		j.State = StatePending
		j.Resumes++
		if err := s.jl.Append(journalRecord{
			Op: opState, ID: id, At: s.now(), State: StatePending, Resumes: j.Resumes,
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// apply folds one journal record into the in-memory state during
// replay, before the store is visible to any other goroutine.
//
//imc:prepublish
func (s *Store) apply(rec journalRecord) error {
	switch rec.Op {
	case opSubmit:
		if rec.Spec == nil {
			return fmt.Errorf("submit record %s has no spec", rec.ID)
		}
		if _, ok := s.jobs[rec.ID]; ok {
			return fmt.Errorf("duplicate submit for %s", rec.ID)
		}
		j := &Job{ID: rec.ID, Key: rec.Key, Spec: *rec.Spec, State: StatePending, SubmittedAt: rec.At}
		s.jobs[rec.ID] = j
		s.order = append(s.order, rec.ID)
		if rec.Key != "" {
			s.byKey[rec.Key] = rec.ID
		}
		s.seq++
	case opState:
		j, ok := s.jobs[rec.ID]
		if !ok {
			return fmt.Errorf("state record for unknown job %s", rec.ID)
		}
		j.State = rec.State
		j.Error = rec.Error
		if rec.Resumes > j.Resumes {
			j.Resumes = rec.Resumes
		}
		switch rec.State {
		case StateRunning:
			j.StartedAt = rec.At
		case StateSucceeded, StateFailed, StateCanceled:
			j.FinishedAt = rec.At
		}
	case opCheckpoint:
		j, ok := s.jobs[rec.ID]
		if !ok {
			return fmt.Errorf("checkpoint record for unknown job %s", rec.ID)
		}
		j.Checkpoint = &CheckpointInfo{Doublings: rec.Doublings, Samples: rec.Samples}
	default:
		return fmt.Errorf("unknown journal op %q", rec.Op)
	}
	return nil
}

func (s *Store) journalPath() string { return filepath.Join(s.dir, "journal.log") }
func (s *Store) checkpointPath(id string) string {
	return filepath.Join(s.dir, id+".ckpt")
}
func (s *Store) resultPath(id string) string {
	return filepath.Join(s.dir, id+".result.json")
}

// Submit registers a job. When key is non-empty and a job with the
// same key already exists, that job is returned with created=false —
// the submission is idempotent and the spec of the original wins.
func (s *Store) Submit(spec Spec, key string) (*Job, bool, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	if key != "" {
		if id, ok := s.byKey[key]; ok {
			out := s.jobs[id].clone()
			s.mu.Unlock()
			return out, false, nil
		}
	}
	s.seq++
	j := &Job{
		ID:          fmt.Sprintf("j%08d", s.seq),
		Key:         key,
		Spec:        spec,
		State:       StatePending,
		SubmittedAt: s.now(),
	}
	ticket, err := s.jl.Stage(journalRecord{
		Op: opSubmit, ID: j.ID, At: j.SubmittedAt, Key: key, Spec: &spec,
	})
	if err != nil {
		s.seq--
		s.mu.Unlock()
		return nil, false, err
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if key != "" {
		s.byKey[key] = j.ID
	}
	out := j.clone()
	jl := s.jl
	s.mu.Unlock()
	// Durability outside the lock: concurrent submissions group-commit
	// behind one fsync instead of serializing reads behind the disk.
	if err := jl.Commit(ticket); err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// Get returns a copy of the job, or ErrNotFound.
func (s *Store) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.clone(), nil
}

// List returns copies of every job in submission order.
func (s *Store) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].clone())
	}
	return out
}

// PendingIDs returns the IDs of pending jobs in submission order — the
// pool's intake on boot (resume-on-boot) and the queue's refill source.
func (s *Store) PendingIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.order))
	for _, id := range s.order {
		if s.jobs[id].State == StatePending {
			out = append(out, id)
		}
	}
	return out
}

// StateCounts returns how many jobs sit in each state.
func (s *Store) StateCounts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[State]int, 5)
	for _, id := range s.order {
		out[s.jobs[id].State]++
	}
	return out
}

// transition validates and applies a state change under the lock,
// staging the journal record inside it and committing outside — the
// caller observes the old durable contract (no return before fsync)
// without other store calls queueing behind the disk.
func (s *Store) transition(id string, from, to State, errMsg string, bumpResumes bool) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.State != from {
		state := j.State
		s.mu.Unlock()
		return nil, fmt.Errorf("job: %s is %s, not %s", id, state, from)
	}
	resumes := j.Resumes
	if bumpResumes {
		resumes++
	}
	at := s.now()
	ticket, err := s.jl.Stage(journalRecord{
		Op: opState, ID: id, At: at, State: to, Error: errMsg, Resumes: resumes,
	})
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	j.State = to
	j.Error = errMsg
	j.Resumes = resumes
	switch to {
	case StateRunning:
		j.StartedAt = at
	case StateSucceeded, StateFailed, StateCanceled:
		j.FinishedAt = at
	}
	out := j.clone()
	jl := s.jl
	s.mu.Unlock()
	if err := jl.Commit(ticket); err != nil {
		return nil, err
	}
	return out, nil
}

// MarkRunning claims a pending job for a worker.
func (s *Store) MarkRunning(id string) (*Job, error) {
	return s.transition(id, StatePending, StateRunning, "", false)
}

// MarkFailed finishes a running job with an error.
func (s *Store) MarkFailed(id string, errMsg string) error {
	_, err := s.transition(id, StateRunning, StateFailed, errMsg, false)
	return err
}

// MarkCanceled finishes a running job as canceled by the client.
func (s *Store) MarkCanceled(id string) error {
	_, err := s.transition(id, StateRunning, StateCanceled, "", false)
	return err
}

// CancelPending cancels a job the workers have not picked up yet.
func (s *Store) CancelPending(id string) error {
	_, err := s.transition(id, StatePending, StateCanceled, "", false)
	return err
}

// MarkInterrupted returns a running job to pending after a drain: its
// checkpoint stays on disk and its resume counter records the
// interruption.
func (s *Store) MarkInterrupted(id string) error {
	_, err := s.transition(id, StateRunning, StatePending, "", true)
	return err
}

// MarkSucceeded persists the result (atomic rename) and then journals
// the terminal transition, in that order: a crash between the two
// re-runs the job, which is safe — results are deterministic — while
// the reverse order could declare success with no result on disk.
func (s *Store) MarkSucceeded(id string, res Result) error {
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("job: marshal result: %w", err)
	}
	if err := atomicio.WriteFile(s.resultPath(id), raw); err != nil {
		return fmt.Errorf("job: persist result: %w", err)
	}
	_, err = s.transition(id, StateRunning, StateSucceeded, "", false)
	return err
}

// Result loads a succeeded job's result.
func (s *Store) Result(id string) (Result, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state State
	if ok {
		state = j.State
	}
	s.mu.Unlock()
	if !ok {
		return Result{}, ErrNotFound
	}
	if state != StateSucceeded {
		return Result{}, fmt.Errorf("job: %s is %s, result available once succeeded", id, state)
	}
	raw, err := os.ReadFile(s.resultPath(id))
	if err != nil {
		return Result{}, fmt.Errorf("job: read result: %w", err)
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return Result{}, fmt.Errorf("job: decode result: %w", err)
	}
	return res, nil
}

// SaveCheckpoint durably records a solver checkpoint for the job: the
// pool snapshot goes to the side file first (atomic rename), then the
// journal records its existence. Crash between the two leaves a
// checkpoint file slightly newer than the journal entry — harmless,
// since the file itself carries the round counter.
func (s *Store) SaveCheckpoint(id string, cp core.Checkpoint) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var spec Spec
	if ok {
		spec = j.Spec
	}
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	if err := writeCheckpointFile(s.checkpointPath(id), spec, cp); err != nil {
		return err
	}
	s.mu.Lock()
	j, ok = s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	info := &CheckpointInfo{Doublings: cp.Doublings, Samples: cp.Pool.NumSamples()}
	ticket, err := s.jl.Stage(journalRecord{
		Op: opCheckpoint, ID: id, At: s.now(), Doublings: info.Doublings, Samples: info.Samples,
	})
	if err != nil {
		s.mu.Unlock()
		return err
	}
	j.Checkpoint = info
	jl := s.jl
	s.mu.Unlock()
	return jl.Commit(ticket)
}

// LoadCheckpoint restores the job's latest checkpoint against the
// instance it will run on. Returns errNoCheckpoint when the job never
// checkpointed; any other error means the checkpoint exists but cannot
// be trusted (corrupt, truncated, or belonging to a different spec) —
// callers log it and restart the solve from scratch.
func (s *Store) LoadCheckpoint(id string, inst *expt.Instance) (*core.Checkpoint, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var spec Spec
	if ok {
		spec = j.Spec
	}
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	dec, err := readCheckpointFile(s.checkpointPath(id))
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	gotJSON, err := json.Marshal(dec.spec)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(specJSON, gotJSON) {
		return nil, fmt.Errorf("job: checkpoint for %s was taken by a different spec (%s vs %s)", id, gotJSON, specJSON)
	}
	pool, err := ric.NewPool(inst.G, inst.Part, ric.PoolOptions{Model: spec.model(), Seed: spec.Seed})
	if err != nil {
		return nil, fmt.Errorf("job: rebuild checkpoint pool: %w", err)
	}
	if err := pool.ReadInto(bytes.NewReader(dec.poolBytes)); err != nil {
		return nil, fmt.Errorf("job: restore checkpoint pool for %s: %w", id, err)
	}
	return &core.Checkpoint{Pool: pool, Doublings: dec.doublings}, nil
}

// DropCheckpoint removes a job's checkpoint file (used when a stale or
// corrupt checkpoint must not be retried).
func (s *Store) DropCheckpoint(id string) error {
	err := os.Remove(s.checkpointPath(id))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("job: drop checkpoint: %w", err)
	}
	return nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Close flushes and releases the journal handle. The store must not be
// used after: no method may hold a commit in flight when Close runs.
func (s *Store) Close() error {
	s.mu.Lock()
	jl := s.jl
	s.mu.Unlock()
	return jl.Close()
}
