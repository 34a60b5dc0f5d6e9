package expt

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Checkpoint persists completed experiment cells to a JSON-lines file
// so an interrupted sweep resumes where it stopped instead of
// recomputing hours of work. Every (panel, x, algorithm) cell is
// written as soon as it finishes; on load, finished cells are served
// from the file.
//
// The zero value (or a nil *Checkpoint) is a no-op pass-through, so
// experiment code can use it unconditionally.
type Checkpoint struct {
	path string
	file *os.File
	done map[string]Row
}

// checkpointRecord is the wire form of one cell.
type checkpointRecord struct {
	Panel       string  `json:"panel"`
	X           string  `json:"x"`
	Alg         string  `json:"alg"`
	Benefit     float64 `json:"benefit"`
	BenefitCI95 float64 `json:"benefitCI95,omitempty"`
	RuntimeSec  float64 `json:"runtimeSec"`
	Ratio       float64 `json:"ratio"`
}

// OpenCheckpoint loads (or creates) a checkpoint file. Corrupt trailing
// lines — the signature of a crash mid-write — are tolerated and
// dropped.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	if path == "" {
		return nil, errors.New("expt: checkpoint path must be non-empty")
	}
	done := make(map[string]Row)
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			var rec checkpointRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				break // torn tail line: stop replaying
			}
			row := Row{
				Panel:       rec.Panel,
				X:           rec.X,
				Alg:         rec.Alg,
				Benefit:     rec.Benefit,
				BenefitCI95: rec.BenefitCI95,
				RuntimeSec:  rec.RuntimeSec,
				Ratio:       rec.Ratio,
			}
			done[cellKey(row.Panel, row.X, row.Alg)] = row
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("expt: read checkpoint: %w", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("expt: open checkpoint: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("expt: append checkpoint: %w", err)
	}
	return &Checkpoint{path: path, file: f, done: done}, nil
}

// Close releases the underlying file. Safe on nil.
func (c *Checkpoint) Close() error {
	if c == nil || c.file == nil {
		return nil
	}
	return c.file.Close()
}

// Len reports how many cells are already complete. Safe on nil.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	return len(c.done)
}

// lookup returns a completed cell, if present. Safe on nil.
func (c *Checkpoint) lookup(panel, x, alg string) (Row, bool) {
	if c == nil {
		return Row{}, false
	}
	row, ok := c.done[cellKey(panel, x, alg)]
	return row, ok
}

// record persists a finished cell. Safe on nil.
func (c *Checkpoint) record(row Row) error {
	if c == nil {
		return nil
	}
	c.done[cellKey(row.Panel, row.X, row.Alg)] = row
	rec := checkpointRecord{
		Panel:       row.Panel,
		X:           row.X,
		Alg:         row.Alg,
		Benefit:     row.Benefit,
		BenefitCI95: row.BenefitCI95,
		RuntimeSec:  row.RuntimeSec,
		Ratio:       row.Ratio,
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("expt: marshal checkpoint row: %w", err)
	}
	raw = append(raw, '\n')
	if _, err := c.file.Write(raw); err != nil {
		return fmt.Errorf("expt: write checkpoint row: %w", err)
	}
	return nil
}

func cellKey(panel, x, alg string) string {
	return panel + "\x00" + x + "\x00" + alg
}

// runCell executes one experiment cell through the checkpoint: cached
// rows are returned without recomputation, fresh rows are computed and
// persisted.
func runCell(ck *Checkpoint, inst *Instance, alg string, k int, run RunConfig, panel, x string) (Row, error) {
	if row, ok := ck.lookup(panel, x, alg); ok {
		return row, nil
	}
	res, err := RunAlgCtx(context.TODO(), inst, alg, k, run)
	if err != nil {
		return Row{}, err
	}
	row := Row{
		Panel:       panel,
		X:           x,
		Alg:         alg,
		Benefit:     res.Benefit,
		BenefitCI95: res.BenefitCI95,
		RuntimeSec:  res.Runtime.Seconds(),
	}
	if err := ck.record(row); err != nil {
		return Row{}, err
	}
	return row, nil
}

var _ io.Closer = (*Checkpoint)(nil)
