package store

import "sync"

// Memory is the Repository contract without durability: the same
// last-write-wins semantics over in-process maps. Tests and embedded
// single-run sweeps use it where a WAL directory would be overhead, and
// it is the WAL's index: the WAL serves every read from it.
type Memory struct {
	mu    sync.Mutex
	cells map[Key]CellResult
	jobs  map[string]JobRecord
}

// NewMemory returns an empty in-memory repository.
func NewMemory() *Memory {
	return &Memory{cells: map[Key]CellResult{}, jobs: map[string]JobRecord{}}
}

// PutCell implements Repository.
func (m *Memory) PutCell(c CellResult) error {
	m.putCell(c)
	return nil
}

// putCell stores c and reports whether it replaced an entry.
func (m *Memory) putCell(c CellResult) (replaced bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, replaced = m.cells[c.Key]
	m.cells[c.Key] = c
	return replaced
}

// GetCell implements Repository.
func (m *Memory) GetCell(k Key) (CellResult, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cells[k]
	return c, ok
}

// PutJob implements Repository.
func (m *Memory) PutJob(j JobRecord) error {
	m.putJob(j)
	return nil
}

// putJob stores j and reports whether it replaced an entry.
func (m *Memory) putJob(j JobRecord) (replaced bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, replaced = m.jobs[j.ID]
	m.jobs[j.ID] = j
	return replaced
}

// GetJob implements Repository.
func (m *Memory) GetJob(id string) (JobRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs implements Repository.
func (m *Memory) Jobs() []JobRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return sortedJobs(m.jobs)
}

// Sync implements Repository (no-op).
func (m *Memory) Sync() error { return nil }

// Close implements Repository (no-op).
func (m *Memory) Close() error { return nil }
