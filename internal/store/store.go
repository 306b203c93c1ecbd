// Package store is the durable result store behind the sweep service:
// a repository of immutable, content-addressed facts. Determinism is
// what makes the design possible — every (Config, CellSeed) cell is a
// pure function of its canonical encoding, so a cell result can be
// persisted once, keyed by the hash of that encoding, deduped across
// jobs, and served forever without re-running; and a job interrupted by
// any failure (including kill -9) resumes exactly where it left off by
// re-enqueuing only the cells whose facts are not yet on disk.
//
// A stored fact holds only what its config determines — no attempt
// count, no stack trace — so every daemon that runs a cell stores the
// same bytes for it.
//
// Memory (memory.go) is the last-write-wins index over in-process maps,
// for tests and embedded use. WAL (wal.go) puts one append-only,
// CRC-checked, fsync-on-commit log file in front of a Memory index; its
// replay skips damaged frames, and its compaction is one write and an
// atomic rename.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"gcs/internal/sim"
)

// Key is the content address of one sweep cell: the SHA-256 of the
// canonical encoding of its defaulted Config (sim.Config.AppendCanonical).
// Two configs share a Key exactly when they describe the same simulated
// physics — worker counts and unset-vs-explicit defaults never split
// the address.
type Key [sha256.Size]byte

// KeyOf derives the content address of cfg.
func KeyOf(cfg sim.Config) Key {
	return sha256.Sum256(cfg.AppendCanonical(nil))
}

// String returns the full hex form.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// MarshalText encodes the key as lowercase hex (JSON object-safe).
func (k Key) MarshalText() ([]byte, error) {
	dst := make([]byte, hex.EncodedLen(len(k)))
	hex.Encode(dst, k[:])
	return dst, nil
}

// UnmarshalText decodes the hex form.
func (k *Key) UnmarshalText(text []byte) error {
	if hex.DecodedLen(len(text)) != len(k) {
		return fmt.Errorf("store: key %q is not %d hex bytes", text, len(k))
	}
	_, err := hex.Decode(k[:], text)
	return err
}

// CellResult is one stored fact: the defaulted config that identifies
// the cell, and either its report or the terminal error that ended its
// execution (a deterministic cell that panics will panic again, so a
// contained failure is as cacheable as a success). Every field is a
// function of Cfg, so two runs of one cell store identical facts.
// Records of earlier versions may carry an "attempts" field; it is
// ignored when they decode.
type CellResult struct {
	Key    Key            `json:"key"`
	Cfg    sim.Config     `json:"cfg"`
	Report sim.SkewReport `json:"report"`
	Err    string         `json:"err,omitempty"`
}

// Failed reports whether the fact is a terminal error rather than a
// report.
func (c CellResult) Failed() bool { return c.Err != "" }

// cellResultJSON is the wire form. JSON numbers cannot carry IEEE
// non-finite values, and one report field is legitimately non-finite:
// ReconvergenceTime is +Inf when a faulted cell never re-entered its
// bound. The flag keeps the round trip lossless; any other non-finite
// float would fail json.Marshal and surface as a Put error rather than
// a corrupted record.
type cellResultJSON struct {
	Key     Key            `json:"key"`
	Cfg     sim.Config     `json:"cfg"`
	Report  sim.SkewReport `json:"report"`
	NeverRe bool           `json:"reconvergence_never,omitempty"`
	Err     string         `json:"err,omitempty"`
}

// MarshalJSON implements the lossless wire form.
func (c CellResult) MarshalJSON() ([]byte, error) {
	w := cellResultJSON{Key: c.Key, Cfg: c.Cfg, Report: c.Report, Err: c.Err}
	if math.IsInf(w.Report.ReconvergenceTime, 1) {
		w.Report.ReconvergenceTime = 0
		w.NeverRe = true
	}
	return json.Marshal(w)
}

// UnmarshalJSON inverts MarshalJSON.
func (c *CellResult) UnmarshalJSON(data []byte) error {
	var w cellResultJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*c = CellResult{Key: w.Key, Cfg: w.Cfg, Report: w.Report, Err: w.Err}
	if w.NeverRe {
		c.Report.ReconvergenceTime = math.Inf(1)
	}
	return nil
}

// JobStatus is a job's lifecycle state. There is no "failed" terminal
// state for jobs: cells fail individually (CellResult.Err) and a job
// with failed cells still completes, carrying the per-cell errors.
type JobStatus string

const (
	// StatusRunning covers admission through the last cell; a daemon
	// restarting over the store re-enqueues every running job's missing
	// cells.
	StatusRunning JobStatus = "running"
	// StatusDone means every cell has a stored fact.
	StatusDone JobStatus = "done"
)

// JobRecord is a job's durable state. Spec is the submitted sweep spec,
// kept opaque here (the store does not know the daemon's spec schema);
// the job's cell list is not stored because it is a deterministic
// function of the spec — the daemon re-expands it on resume.
type JobRecord struct {
	ID     string          `json:"id"`
	Spec   json.RawMessage `json:"spec"`
	Status JobStatus       `json:"status"`
	Cells  int             `json:"cells"`
}

// Repository is the storage contract the job daemon schedules against.
// Implementations must make Put durable before returning (WAL fsyncs on
// commit) and must be safe for concurrent use.
type Repository interface {
	// PutCell stores one cell fact; re-putting a key overwrites (facts
	// for one key are identical by construction, so last-wins is safe).
	PutCell(CellResult) error
	// GetCell fetches a fact by content address.
	GetCell(Key) (CellResult, bool)
	// PutJob stores a job's current state (last write wins).
	PutJob(JobRecord) error
	// GetJob fetches a job by ID.
	GetJob(id string) (JobRecord, bool)
	// Jobs lists every job, sorted by ID.
	Jobs() []JobRecord
	// Sync forces everything written so far to stable storage.
	Sync() error
	// Close releases the repository; the data remains reopenable.
	Close() error
}
