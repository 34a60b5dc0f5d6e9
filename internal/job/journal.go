package job

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// The journal is the Store's append-only JSONL log of job metadata:
// replaying it from the top reconstructs the Store's current state, so
// records are never rewritten in place — a crash can at worst leave one
// torn line at the tail, which replay detects and truncates away before
// appending resumes.
//
// Large blobs (pool checkpoints, results) live in side files and are
// written via atomic rename; the journal only records that they exist.

// journalOp enumerates the Store's record types.
const (
	opSubmit     = "submit"
	opState      = "state"
	opCheckpoint = "checkpoint"
)

// journalRecord is one Store JSONL line. Fields beyond Op/ID/At apply
// only to some ops.
type journalRecord struct {
	Op string    `json:"op"`
	ID string    `json:"id"`
	At time.Time `json:"at"`

	// opSubmit
	Key  string `json:"key,omitempty"`
	Spec *Spec  `json:"spec,omitempty"`

	// opState
	State   State  `json:"state,omitempty"`
	Error   string `json:"error,omitempty"`
	Resumes int    `json:"resumes,omitempty"`

	// opCheckpoint
	Doublings int `json:"doublings,omitempty"`
	Samples   int `json:"samples,omitempty"`
}

// journal is the append handle, split into two halves so an owner
// never fsyncs inside its own mutex (the lockheld analyzer's canonical
// stall: every read would queue behind disk latency):
//
//   - Stage() runs under the owner's mutex: it marshals the record into
//     the pending buffer and issues a ticket. Buffer order therefore
//     matches the order state changes were applied, which is what
//     replay depends on.
//   - Commit(ticket) runs AFTER the owner's mutex is released: it swaps
//     the pending buffer out and pays for write+flush+fsync under the
//     journal's own writer lock. A commit that finds its ticket
//     already synced piggybacks on an earlier caller's fsync — under
//     contention the journal group-commits many records per sync.
//
// Durability semantics for callers: a mutation returns only after its
// record is on disk. What changes on failure: the in-memory transition
// has already been published when Commit fails, so the caller gets the
// error while memory runs ahead of disk. The sticky werr then fails
// every later mutation, freezing the owner until restart — at which
// point replay rewinds to the last synced record and interrupted work
// resumes from its side files.
type journal struct {
	// Staging half, guarded by smu (taken with the owner's mutex held;
	// always innermost, so the lock-order graph stays acyclic).
	smu     sync.Mutex
	pending []byte //imc:guardedby smu
	staged  uint64 //imc:guardedby smu — tickets issued

	// Writer half, guarded by mu — deliberately held across the fsync
	// so concurrent commits batch behind one sync.
	mu     sync.Mutex
	file   *os.File      //imc:guardedby mu
	bw     *bufio.Writer //imc:guardedby mu
	synced uint64        //imc:guardedby mu — tickets durably on disk
	werr   error         //imc:guardedby mu — sticky write/sync failure
}

// replayJournal reads every intact record from path, reporting the
// byte offset where intact data ends. A missing file is an empty
// journal. A line that does not decode to a record with an op and an
// ID stops replay at the previous record — the line, and everything
// after it, is treated as the torn/corrupt tail of a crash mid-append,
// which the caller truncates away via openJournalAt. An apply error
// aborts the replay outright (the journal is intact but the state is
// contradictory, e.g. a transition for an unknown ID).
func replayJournal(path string, apply func(journalRecord) error) (int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("job: open journal: %w", err)
	}
	defer f.Close()

	var good int64
	br := bufio.NewReaderSize(f, 1<<16)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// A final line without a newline is a torn append: ignore it.
			return good, nil
		}
		if err != nil {
			return 0, fmt.Errorf("job: read journal: %w", err)
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Op == "" || rec.ID == "" {
			// Corrupt interior line: everything after it is suspect too,
			// so stop here and let the caller truncate.
			return good, nil
		}
		if err := apply(rec); err != nil {
			return 0, fmt.Errorf("job: replay journal: %w", err)
		}
		good += int64(len(line))
	}
}

// openJournalAt opens path for appending, truncated to intactBytes (the
// offset replayJournal reported) so torn tails never corrupt later
// records.
func openJournalAt(path string, intactBytes int64) (*journal, error) {
	if err := os.Truncate(path, intactBytes); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("job: truncate journal tail: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("job: open journal for append: %w", err)
	}
	return &journal{file: f, bw: bufio.NewWriter(f)}, nil
}

// Stage marshals one record into the pending buffer and returns its
// commit ticket. Callers stage under their own mutex (so buffer order
// matches in-memory apply order) and pass the ticket to Commit after
// releasing it. A marshal failure stages nothing — the caller can still
// roll back its in-memory change.
func (j *journal) Stage(rec any) (uint64, error) {
	raw, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("job: marshal journal record: %w", err)
	}
	j.smu.Lock()
	defer j.smu.Unlock()
	j.pending = append(j.pending, raw...)
	j.pending = append(j.pending, '\n')
	j.staged++
	return j.staged, nil
}

// Commit makes every record up to ticket durable. The fast path — a
// concurrent commit already synced past the ticket — returns without
// touching the file. Record rates are nowhere near fsync throughput,
// and a lost record means work silently re-runs or vanishes on restart,
// so the journal always pays for durability; the group-commit batching
// just makes contenders share one payment.
func (j *journal) Commit(ticket uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.werr != nil {
		return j.werr
	}
	if j.synced >= ticket {
		return nil
	}
	j.smu.Lock()
	buf := j.pending
	top := j.staged
	j.pending = nil
	j.smu.Unlock()
	if len(buf) > 0 {
		//lint:allow lockheld: the writer mutex exists to serialize exactly this fsync; holding it across the sync is how commits batch, and nothing else ever waits on it except other commits
		if err := j.flushAndSync(buf); err != nil {
			j.werr = err
			return err
		}
	}
	j.synced = top
	return nil
}

// flushAndSync pushes buf through the buffered writer to the kernel
// and fsyncs. Called with j.mu held.
//
//imc:locked mu
func (j *journal) flushAndSync(buf []byte) error {
	if _, err := j.bw.Write(buf); err != nil {
		return fmt.Errorf("job: append journal: %w", err)
	}
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("job: flush journal: %w", err)
	}
	if err := j.file.Sync(); err != nil {
		return fmt.Errorf("job: sync journal: %w", err)
	}
	return nil
}

// Append stages and immediately commits one record — the single-
// threaded path (boot-time replay demotions), where there is nothing
// to batch with.
func (j *journal) Append(rec any) error {
	ticket, err := j.Stage(rec)
	if err != nil {
		return err
	}
	return j.Commit(ticket)
}

// Close flushes anything still staged and releases the file handle.
// Single-caller contract: no commits may be in flight.
func (j *journal) Close() error {
	if j == nil {
		return nil
	}
	j.smu.Lock()
	top := j.staged
	j.smu.Unlock()
	cerr := j.Commit(top)
	j.mu.Lock()
	f := j.file
	j.file = nil
	j.mu.Unlock()
	if f == nil {
		return cerr
	}
	if ferr := f.Close(); cerr == nil && ferr != nil {
		return fmt.Errorf("job: close journal: %w", ferr)
	}
	return cerr
}
