package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// WAL is the durable Repository: an append-only write-ahead log of
// length-prefixed, CRC-checked JSON records under one directory, with
// an in-memory index rebuilt by replay on open.
//
// Frame layout, little-endian:
//
//	[u32 payload length][u32 CRC-32C of payload][payload JSON]
//
// Durability contract: every Put appends one frame and fsyncs the
// segment before returning, so an acknowledged write survives kill -9
// at any instant. Recovery contract: open replays segments in order; a
// torn or corrupt frame (short header, absurd length, CRC mismatch,
// unparseable JSON — all indistinguishable from a crash mid-append)
// truncates its segment at the last good frame and replay continues
// with the next segment. Records are independent facts, so dropping a
// suffix is always consistent — at worst a cell re-runs.
//
// The active segment rotates at SegmentBytes. When replay saw
// superseded records (duplicate cell puts from retries, job status
// rewrites) or recovered garbage, Open compacts: it rewrites the live
// state (every cell fact, each job's latest record) into a fresh
// segment chain and removes the old segments.
type WAL struct {
	dir      string
	segBytes int64

	mu         sync.Mutex
	active     *os.File
	activeIdx  int
	activeSize int64
	cells      map[Key]CellResult
	jobs       map[string]JobRecord
	stats      WALStats
}

// WALStats describes what open and subsequent writes observed, for
// tests and operational logging.
type WALStats struct {
	// Segments is the current on-disk segment count.
	Segments int
	// RecordsReplayed counts frames applied during Open.
	RecordsReplayed int
	// TruncatedBytes counts bytes discarded by torn-tail/corruption
	// recovery during Open.
	TruncatedBytes int64
	// Superseded counts replayed or written records that overwrote an
	// earlier record (retry duplicates, job status updates).
	Superseded int
	// Compactions counts compactions on open.
	Compactions int
}

// WALOptions tune a WAL; the zero value is production defaults.
type WALOptions struct {
	// SegmentBytes rotates the active segment past this size
	// (default 4 MiB).
	SegmentBytes int64
	// NoAutoCompact disables the automatic compaction on open that
	// normally runs when replay found superseded records or recovered
	// garbage; recovery tests use it to inspect the un-compacted state.
	NoAutoCompact bool
}

const (
	walFrameHeader = 8
	// walMaxRecord bounds a frame's declared payload length; anything
	// larger is treated as corruption (a cell record is a few KB).
	walMaxRecord = 16 << 20
	walSegPrefix = "wal-"
	walSegSuffix = ".log"
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walRecord is the envelope every frame carries.
type walRecord struct {
	Cell *CellResult `json:"cell,omitempty"`
	Job  *JobRecord  `json:"job,omitempty"`
}

// OpenWAL opens (creating if needed) the store at dir and replays it.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &WAL{
		dir:      dir,
		segBytes: opts.SegmentBytes,
		cells:    map[Key]CellResult{},
		jobs:     map[string]JobRecord{},
	}
	segs, err := w.segments()
	if err != nil {
		return nil, err
	}
	for _, idx := range segs {
		if err := w.replaySegment(idx); err != nil {
			return nil, err
		}
	}
	w.stats.Segments = len(segs)
	last := 0
	if len(segs) > 0 {
		last = segs[len(segs)-1]
	} else {
		w.stats.Segments = 1
	}
	if err := w.openActive(last); err != nil {
		return nil, err
	}
	if !opts.NoAutoCompact && (w.stats.Superseded > 0 || w.stats.TruncatedBytes > 0) {
		if err := w.compactLocked(); err != nil {
			w.active.Close()
			return nil, err
		}
	}
	return w, nil
}

// segments returns the sorted segment indices present in the directory.
func (w *WAL) segments() ([]int, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []int
	for _, e := range entries {
		name := e.Name()
		var idx int
		if _, err := fmt.Sscanf(name, walSegPrefix+"%08d"+walSegSuffix, &idx); err == nil {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out, nil
}

func (w *WAL) segPath(idx int) string {
	return filepath.Join(w.dir, fmt.Sprintf("%s%08d%s", walSegPrefix, idx, walSegSuffix))
}

// replaySegment applies one segment's frames to the in-memory state,
// truncating the file at the first corrupt or torn frame.
func (w *WAL) replaySegment(idx int) error {
	path := w.segPath(idx)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	off := 0
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return nil // clean end (an empty segment lands here immediately)
		}
		if len(rest) < walFrameHeader {
			break // torn header
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if length > walMaxRecord || int(length) > len(rest)-walFrameHeader {
			break // absurd or torn payload
		}
		payload := rest[walFrameHeader : walFrameHeader+int(length)]
		if crc32.Checksum(payload, walCRC) != crc {
			break // CRC mismatch
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // framed but unparseable: treat as corruption
		}
		w.apply(rec)
		w.stats.RecordsReplayed++
		off += walFrameHeader + int(length)
	}
	// Torn tail or mid-segment corruption: drop the suffix on disk so
	// the next replay (and any append to this segment) starts clean.
	w.stats.TruncatedBytes += int64(len(data) - off)
	if err := os.Truncate(path, int64(off)); err != nil {
		return fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
	}
	return nil
}

// apply folds one record into the index, last record wins.
func (w *WAL) apply(rec walRecord) {
	if rec.Cell != nil {
		if _, dup := w.cells[rec.Cell.Key]; dup {
			w.stats.Superseded++
		}
		w.cells[rec.Cell.Key] = *rec.Cell
	}
	if rec.Job != nil {
		if _, dup := w.jobs[rec.Job.ID]; dup {
			w.stats.Superseded++
		}
		w.jobs[rec.Job.ID] = *rec.Job
	}
}

// openActive opens segment idx for appending as the active segment.
func (w *WAL) openActive(idx int) error {
	f, err := os.OpenFile(w.segPath(idx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	w.active = f
	w.activeIdx = idx
	w.activeSize = size
	return nil
}

// append frames, writes, and fsyncs one record; rotates first when the
// active segment is full. Callers hold w.mu.
func (w *WAL) append(rec walRecord) error {
	if w.active == nil {
		return fmt.Errorf("store: WAL is closed")
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding record: %w", err)
	}
	if w.activeSize >= w.segBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	frame := make([]byte, walFrameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, walCRC))
	copy(frame[walFrameHeader:], payload)
	if _, err := w.active.Write(frame); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w.activeSize += int64(len(frame))
	return nil
}

// rotateLocked seals the active segment and starts the next one.
func (w *WAL) rotateLocked() error {
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := w.active.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := w.openActive(w.activeIdx + 1); err != nil {
		return err
	}
	w.stats.Segments++
	return w.syncDir()
}

// syncDir fsyncs the store directory so segment creation/removal itself
// is durable.
func (w *WAL) syncDir() error {
	d, err := os.Open(w.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// PutCell implements Repository. Last write wins; facts for one key are
// identical by construction, so a retry duplicate is harmless and is
// folded out by the next compaction.
func (w *WAL) PutCell(c CellResult) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.append(walRecord{Cell: &c}); err != nil {
		return err
	}
	if _, dup := w.cells[c.Key]; dup {
		w.stats.Superseded++
	}
	w.cells[c.Key] = c
	return nil
}

// GetCell implements Repository.
func (w *WAL) GetCell(k Key) (CellResult, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	c, ok := w.cells[k]
	return c, ok
}

// PutJob implements Repository.
func (w *WAL) PutJob(j JobRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.append(walRecord{Job: &j}); err != nil {
		return err
	}
	if _, dup := w.jobs[j.ID]; dup {
		w.stats.Superseded++
	}
	w.jobs[j.ID] = j
	return nil
}

// GetJob implements Repository.
func (w *WAL) GetJob(id string) (JobRecord, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	j, ok := w.jobs[id]
	return j, ok
}

// Jobs implements Repository: every job, sorted by ID (map iteration
// order must never surface).
func (w *WAL) Jobs() []JobRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	return sortedJobs(w.jobs)
}

// Sync implements Repository. Puts already fsync on commit, so this is
// a final barrier for drain paths.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.active == nil {
		return nil
	}
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close implements Repository.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.active == nil {
		return nil
	}
	err := w.active.Sync()
	if cerr := w.active.Close(); err == nil {
		err = cerr
	}
	w.active = nil
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// compactLocked rewrites the live state into a fresh segment chain
// (rotating at the size cap as usual) and removes the old segments,
// folding out superseded records and recovered garbage. The rewrite is
// ordered (jobs by ID, then cells by key) so compacted segments are
// byte-deterministic functions of the state.
func (w *WAL) compactLocked() error {
	if w.active == nil {
		return fmt.Errorf("store: WAL is closed")
	}
	old, err := w.segments()
	if err != nil {
		return err
	}
	first := w.activeIdx + 1
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := w.active.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w.active = nil
	if err := w.openActive(first); err != nil {
		return err
	}
	for _, j := range sortedJobs(w.jobs) {
		j := j
		if err := w.append(walRecord{Job: &j}); err != nil {
			return err
		}
	}
	keys := make([]Key, 0, len(w.cells))
	for k := range w.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return string(keys[i][:]) < string(keys[j][:]) })
	for _, k := range keys {
		c := w.cells[k]
		if err := w.append(walRecord{Cell: &c}); err != nil {
			return err
		}
	}
	for _, idx := range old {
		if idx >= first {
			continue
		}
		if err := os.Remove(w.segPath(idx)); err != nil {
			return fmt.Errorf("store: removing compacted segment: %w", err)
		}
	}
	if err := w.syncDir(); err != nil {
		return err
	}
	w.stats.Segments = w.activeIdx - first + 1
	w.stats.Superseded = 0
	w.stats.TruncatedBytes = 0
	w.stats.Compactions++
	return nil
}

// Stats returns a snapshot of the WAL's counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// sortedJobs flattens a job map in ID order.
func sortedJobs(m map[string]JobRecord) []JobRecord {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]JobRecord, 0, len(ids))
	for _, id := range ids {
		out = append(out, m[id])
	}
	return out
}
