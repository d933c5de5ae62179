package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// CheckpointVersion identifies the checkpoint journal layout.
// LoadCheckpoint rejects files written by an incompatible version.
const CheckpointVersion = 1

// Checkpoint is the in-memory state of a resumable sweep: the run's
// Identity (a checkpoint must never resume a different workload) plus
// every completed point result keyed by its canonical PointKey.
//
// On disk a checkpoint is an append-only NDJSON journal: one header line
// with the identity, then one line per completed point. Appending is O(1)
// per point — the journal never rewrites prior results — and a process
// killed mid-append loses at most its torn final line, which
// LoadCheckpoint tolerates and the resumed run recomputes.
type Checkpoint struct {
	Version int
	Identity
	// Results maps PointKey to the completed result.
	Results map[string]Result
}

// Identity is the workload a run computes: the experiment selector plus
// the knobs that select its Scale. A checkpoint must never resume a
// different workload, so every knob is part of it. Its JSON spelling is
// the shared head of the /v1/run request and stream header and of the
// checkpoint header; the omitempty knobs keep default-axis headers on the
// bytes of the earlier formats, so old journals load and default journals
// written today load in old builds.
type Identity struct {
	Experiment string `json:"experiment"`
	Knobs
}

// checkpointHeader is the journal's first line.
type checkpointHeader struct {
	Version int `json:"version"`
	Identity
}

// checkpointEntry is one completed point, one journal line.
type checkpointEntry struct {
	Key    string `json:"key"`
	Result Result `json:"result"`
}

// NewCheckpointFor returns an empty checkpoint for the given run identity.
func NewCheckpointFor(id Identity) *Checkpoint {
	return &Checkpoint{
		Version:  CheckpointVersion,
		Identity: id,
		Results:  make(map[string]Result),
	}
}

// MatchesIdentity reports whether the checkpoint was recorded for the same
// run identity, with a descriptive error naming both in their JSON
// spelling (default knobs omitted) when it was not.
func (c *Checkpoint) MatchesIdentity(id Identity) error {
	if c.Identity != id {
		have, _ := json.Marshal(c.Identity)
		want, _ := json.Marshal(id)
		return fmt.Errorf("checkpoint records run %s, requested %s: delete the file or match its flags", have, want)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint journal. A missing file is not an
// error: it returns (nil, nil) so callers start fresh. A torn final line
// (the mark of a kill mid-append) is skipped; corruption anywhere else is
// an error.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(data, []byte("\n"))
	// Trim trailing empty lines (the journal ends with one newline).
	for len(lines) > 0 && len(bytes.TrimSpace(lines[len(lines)-1])) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("checkpoint %s: empty journal", path)
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return nil, fmt.Errorf("checkpoint %s: bad header: %w", path, err)
	}
	if hdr.Version != CheckpointVersion {
		return nil, fmt.Errorf("checkpoint %s: version %d, want %d", path, hdr.Version, CheckpointVersion)
	}
	c := NewCheckpointFor(hdr.Identity)
	for i, line := range lines[1:] {
		var e checkpointEntry
		if err := json.Unmarshal(line, &e); err != nil {
			if i == len(lines[1:])-1 {
				break // torn final line from a kill mid-append
			}
			return nil, fmt.Errorf("checkpoint %s: bad entry on line %d: %w", path, i+2, err)
		}
		c.Results[e.Key] = e.Result
	}
	return c, nil
}

// WriteFile persists the whole checkpoint as a fresh journal, atomically
// (temp file + rename), with entries in sorted-key order so the same
// result set always produces the same bytes. Running sweeps append via
// CheckpointWriter instead; WriteFile is the compaction path — `pbbf
// sweep` calls it after a successful resumed run, so a completed run
// leaves a minimal, canonical journal instead of the accumulated
// append-only history (torn tails, whatever append order the worker pool
// produced).
func (c *Checkpoint) WriteFile(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(checkpointHeader{c.Version, c.Identity}); err != nil {
		return err
	}
	keys := make([]string, 0, len(c.Results))
	for key := range c.Results {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if err := enc.Encode(checkpointEntry{Key: key, Result: c.Results[key]}); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// CheckpointWriter appends completed points to a checkpoint journal.
// Append is safe for concurrent use and costs one small write per point,
// so checkpointing never rewrites earlier results and workers only
// contend on the line write itself.
type CheckpointWriter struct {
	mu sync.Mutex
	f  *os.File
}

// OpenWriter opens the checkpoint's journal for appending, writing the
// identity header first when the file is new or empty. A torn final line
// left by a kill mid-append is truncated away first — appending directly
// after it would merge two entries into one invalid line and corrupt the
// journal for every later load.
func (c *Checkpoint) OpenWriter(path string) (*CheckpointWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size > 0 {
		if size, err = truncateTornTail(f, size); err != nil {
			f.Close()
			return nil, err
		}
	}
	if size == 0 {
		hdr, err := json.Marshal(checkpointHeader{c.Version, c.Identity})
		if err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, err
		}
	} else if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &CheckpointWriter{f: f}, nil
}

// truncateTornTail drops an unterminated final line from the journal:
// everything after the last newline is the torn remains of an append the
// writing process never finished. Returns the journal's size after the
// truncation.
func truncateTornTail(f *os.File, size int64) (int64, error) {
	const chunk = 64 << 10
	end := size
	for end > 0 {
		start := end - chunk
		if start < 0 {
			start = 0
		}
		buf := make([]byte, end-start)
		if _, err := f.ReadAt(buf, start); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			keep := start + int64(i) + 1
			if keep == size {
				return size, nil // journal already ends cleanly
			}
			return keep, f.Truncate(keep)
		}
		end = start
	}
	// No newline anywhere: the whole file is one torn header write.
	return 0, f.Truncate(0)
}

// Append journals one completed point.
func (w *CheckpointWriter) Append(key string, res Result) error {
	line, err := json.Marshal(checkpointEntry{Key: key, Result: res})
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err = w.f.Write(append(line, '\n'))
	return err
}

// Close closes the journal.
func (w *CheckpointWriter) Close() error {
	return w.f.Close()
}
