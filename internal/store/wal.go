package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// WAL is the durable Repository: one append-only log file, wal.log, of
// length-prefixed, CRC-checked JSON records, in front of a Memory index
// rebuilt by replay on open. Reads go to the index alone; they never
// wait for a write, and a write applies to the index only after its
// frame is fsynced, so a read never sees a fact that is not durable.
//
// Frame layout, little-endian:
//
//	[u32 payload length][u32 CRC-32C of payload][payload JSON]
//
// Durability contract: every Put appends one frame and fsyncs the log
// before returning, so an acknowledged write survives kill -9 at any
// instant. Recovery contract: a frame that fails its checks (short
// header, absurd length, CRC mismatch, unparseable JSON — a torn tail
// is one) is skipped, and replay resumes at the next offset where a
// whole frame checks out, so damage costs only the frames it touches.
// Records are independent facts, so losing one is always consistent —
// at worst a cell re-runs.
//
// When replay saw superseded records (job status rewrites, a cell
// stored twice) or skipped damage, Open compacts: it streams the index
// (each job's latest record, every cell fact) into wal.log.tmp, fsyncs
// it, renames it over wal.log and fsyncs the directory, so a crash at
// any point leaves either the old log or the new one.
type WAL struct {
	index // GetCell, GetJob and Jobs; its PutCell and PutJob are shadowed
	dir   string

	mu    sync.Mutex // serialises writes; reads take only the index's lock
	log   *os.File
	stats WALStats
}

// index is Memory under an unexported name, so the WAL embeds it without
// exporting the field that would bypass the log.
type index = Memory

// WALStats describes what open and subsequent writes observed, for
// tests and operational logging. Compaction leaves them as they are,
// so after Open they report what that open recovered.
type WALStats struct {
	// RecordsReplayed counts frames applied during Open.
	RecordsReplayed int
	// TruncatedBytes counts bytes discarded by recovery during Open:
	// torn tails and the frames damage touched.
	TruncatedBytes int64
	// Superseded counts replayed or written records that overwrote an
	// earlier record (job status updates, a cell stored twice).
	Superseded int
	// Compactions counts compactions on open.
	Compactions int
}

// WALOptions is kept so that callers passing WALOptions{} still build;
// the WAL has no options.
type WALOptions struct{}

const (
	walFrameHeader = 8
	// walMaxRecord bounds a frame's declared payload length; anything
	// larger is treated as corruption (a cell record is a few KB).
	walMaxRecord = 16 << 20
	walLog       = "wal.log"
	walTmp       = walLog + ".tmp"
	// walSegment matches the numbered segments of earlier versions.
	walSegment = "wal-[0-9]*.log"
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walRecord is the envelope every frame carries.
type walRecord struct {
	Cell *CellResult `json:"cell,omitempty"`
	Job  *JobRecord  `json:"job,omitempty"`
}

// OpenWAL opens (creating if needed) the store at dir and replays it.
// A directory written by an earlier version holds numbered segments
// (wal-NNNNNNNN.log) instead of wal.log: they are replayed in order,
// compacted into wal.log and removed. Segments beside an existing
// wal.log were already folded into it by a compaction that crashed
// before removing them, and a leftover wal.log.tmp is a compaction that
// crashed before its rename; both are removed unread.
func OpenWAL(dir string, _ WALOptions) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var legacy []string // ReadDir sorts by name, so segments are in order
	hasLog := false
	for _, e := range entries {
		name := e.Name()
		if name == walTmp {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("store: %w", err)
			}
		}
		if ok, _ := filepath.Match(walSegment, name); ok {
			legacy = append(legacy, name)
		}
		hasLog = hasLog || name == walLog
	}
	w := &WAL{index: index{cells: map[Key]CellResult{}, jobs: map[string]JobRecord{}}, dir: dir}
	sources := legacy
	if hasLog {
		sources = []string{walLog}
	}
	for _, name := range sources {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		n, skipped := replay(data, w.apply)
		w.stats.RecordsReplayed += n
		w.stats.TruncatedBytes += skipped
	}
	if (!hasLog && len(legacy) > 0) || w.stats.Superseded > 0 || w.stats.TruncatedBytes > 0 {
		err = w.compact()
	} else {
		w.log, err = os.OpenFile(filepath.Join(dir, walLog), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, name := range legacy {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			w.log.Close()
			return nil, fmt.Errorf("store: removing a folded segment: %w", err)
		}
	}
	return w, nil
}

// replay calls apply for every whole frame in data that passes its
// checks, in order, and returns how many it applied and how many bytes
// it skipped. A frame that fails a check is skipped one byte at a time,
// up to the next offset where a whole frame checks out. No offset inside
// a JSON payload passes for a header: a length under walMaxRecord has a
// zero top byte, and JSON text holds no zero byte.
func replay(data []byte, apply func(walRecord)) (records int, skipped int64) {
	for off := 0; off < len(data); {
		if rec, n, ok := decodeFrame(data[off:]); ok {
			apply(rec)
			records++
			off += n
		} else {
			skipped++
			off++
		}
	}
	return records, skipped
}

// decodeFrame decodes the frame at the start of b and returns its
// length, or ok = false if b does not start with a whole, valid frame.
func decodeFrame(b []byte) (rec walRecord, n int, ok bool) {
	if len(b) < walFrameHeader {
		return rec, 0, false // torn header
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	if length > walMaxRecord || int(length) > len(b)-walFrameHeader {
		return rec, 0, false // absurd or torn payload
	}
	payload := b[walFrameHeader : walFrameHeader+int(length)]
	if crc32.Checksum(payload, walCRC) != binary.LittleEndian.Uint32(b[4:8]) {
		return rec, 0, false
	}
	if json.Unmarshal(payload, &rec) != nil {
		return walRecord{}, 0, false // framed but unparseable
	}
	return rec, walFrameHeader + int(length), true
}

// appendFrame appends rec's frame to dst.
func appendFrame(dst []byte, rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return dst, fmt.Errorf("encoding record: %w", err)
	}
	dst = slices.Grow(dst, walFrameHeader+len(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, walCRC))
	return append(dst, payload...), nil
}

// apply folds one record into the index, last record wins. Callers
// hold w.mu or own w alone.
func (w *WAL) apply(rec walRecord) {
	if rec.Cell != nil && w.putCell(*rec.Cell) {
		w.stats.Superseded++
	}
	if rec.Job != nil && w.putJob(*rec.Job) {
		w.stats.Superseded++
	}
}

// put appends and fsyncs one record's frame, then applies the record.
// Callers hold w.mu.
func (w *WAL) put(rec walRecord) error {
	if w.log == nil {
		return fmt.Errorf("store: WAL is closed")
	}
	frame, err := appendFrame(nil, rec)
	if err == nil {
		_, err = w.log.Write(frame)
	}
	if err == nil {
		err = w.log.Sync()
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w.apply(rec)
	return nil
}

// PutCell implements Repository. Last write wins; facts for one key are
// identical by construction, so a duplicate is harmless and is folded
// out by the next compaction.
func (w *WAL) PutCell(c CellResult) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.put(walRecord{Cell: &c})
}

// PutJob implements Repository.
func (w *WAL) PutJob(j JobRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.put(walRecord{Job: &j})
}

// Sync implements Repository. Puts already fsync on commit, so this is
// a final barrier for drain paths.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log == nil {
		return nil
	}
	if err := w.log.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close implements Repository.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log == nil {
		return nil
	}
	err := w.log.Sync()
	if cerr := w.log.Close(); err == nil {
		err = cerr
	}
	w.log = nil
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// compact streams the index into wal.log.tmp through one buffered
// writer (jobs by ID, then cells by key, so the log is a byte-
// deterministic function of the state), fsyncs it once, renames it over
// wal.log and fsyncs the directory. The new log stays open as w.log.
// Only OpenWAL calls it, while it owns w alone.
func (w *WAL) compact() error {
	f, err := os.Create(filepath.Join(w.dir, walTmp))
	if err != nil {
		return err
	}
	if err := w.writeLog(f); err != nil {
		f.Close()
		return err
	}
	w.log = f
	w.stats.Compactions++
	return nil
}

// writeLog is compact's I/O: it frames the index into f (wal.log.tmp,
// open and empty), fsyncs it, renames it over wal.log and fsyncs the
// directory.
func (w *WAL) writeLog(f *os.File) error {
	bw := bufio.NewWriter(f)
	var frame []byte
	write := func(rec walRecord) (err error) {
		if frame, err = appendFrame(frame[:0], rec); err == nil {
			bw.Write(frame) // a write error sticks, and Flush returns it
		}
		return err
	}
	for _, j := range sortedJobs(w.jobs) {
		if err := write(walRecord{Job: &j}); err != nil {
			return err
		}
	}
	for _, k := range slices.SortedFunc(maps.Keys(w.cells), func(a, b Key) int { return bytes.Compare(a[:], b[:]) }) {
		c := w.cells[k]
		if err := write(walRecord{Cell: &c}); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), filepath.Join(w.dir, walLog)); err != nil {
		return err
	}
	d, err := os.Open(w.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Stats returns a snapshot of the WAL's counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// sortedJobs flattens a job map in ID order.
func sortedJobs(m map[string]JobRecord) []JobRecord {
	out := make([]JobRecord, 0, len(m))
	for _, id := range slices.Sorted(maps.Keys(m)) {
		out = append(out, m[id])
	}
	return out
}
