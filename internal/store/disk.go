package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"pbbf/internal/scenario"
)

// DiskVersion identifies the on-disk layout (manifest and record shape).
// Open refuses a directory written by an incompatible version instead of
// misreading it.
const DiskVersion = 1

// Disk is the durable Store backend: one content-addressed record file per
// canonical PointKey under a store directory. Layout:
//
//	dir/
//	  STORE.json            manifest: layout version (written at creation)
//	  objects/<hh>/<hash>   one JSON record per key, fanned out by the
//	                        first two hex digits of the key's FNV-128 hash
//	  quarantine/           corrupt records moved aside by Get
//
// Every record is written to a temp file in its final directory and
// renamed into place, so a record either exists completely or not at all —
// a crash mid-Put leaves at most a temp file, which Open sweeps away. Each
// record redundantly carries its key, the scenario ID and scale segments
// split out of that key, and a checksum of the result payload; Get
// verifies all of them and quarantines any record that disagrees with
// itself, so a corrupt or mis-filed record becomes a recomputable miss
// instead of a silently wrong result.
type Disk struct {
	dir string
	// objects is dir/objects/ with its trailing separator, the prefix of
	// every record path.
	objects string

	// renameMu serializes the exists-check + rename step of Put so the
	// entry counter stays exact under concurrent writers; record
	// marshalling and temp-file I/O happen outside it.
	renameMu sync.Mutex

	entries      atomic.Int64
	hits         atomic.Uint64
	misses       atomic.Uint64
	puts         atomic.Uint64
	bytesWritten atomic.Uint64
	quarantined  atomic.Uint64
	errors       atomic.Uint64
}

// manifest is the store directory's identity file.
type manifest struct {
	Version int `json:"version"`
}

// record is one stored result. Version, Key, Scenario, and Scale form the
// self-verifying header: Scenario and Scale must equal the segments
// SplitKey derives from Key, and Sum must match the result payload, or the
// record is quarantined on read.
type record struct {
	Version  int             `json:"version"`
	Key      string          `json:"key"`
	Scenario string          `json:"scenario"`
	Scale    string          `json:"scale"`
	Result   scenario.Result `json:"result"`
	// Sum is the FNV-1a 64-bit hash (hex) of the marshalled Result,
	// detecting torn or bit-rotted payloads that still parse as JSON.
	Sum string `json:"sum"`
}

const (
	manifestName  = "STORE.json"
	objectsDir    = "objects"
	quarantineDir = "quarantine"
	tmpPrefix     = ".tmp-"
)

// Open opens (creating if needed) a disk store rooted at dir. Reopening
// after a crash is safe: leftover temp files from interrupted Puts are
// removed, complete records are counted, and corrupt records are left in
// place to be quarantined lazily by the Get that touches them.
func Open(dir string) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	for _, sub := range []string{objectsDir, quarantineDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	d := &Disk{dir: dir, objects: filepath.Join(dir, objectsDir) + string(filepath.Separator)}
	if err := d.checkManifest(); err != nil {
		return nil, err
	}
	n, err := d.sweep()
	if err != nil {
		return nil, err
	}
	d.entries.Store(int64(n))
	return d, nil
}

// checkManifest verifies an existing manifest's version or writes a fresh
// one (atomically, like every other file in the store).
func (d *Disk) checkManifest() error {
	path := filepath.Join(d.dir, manifestName)
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return fmt.Errorf("store: %s: unreadable manifest: %w", path, err)
		}
		if m.Version != DiskVersion {
			return fmt.Errorf("store: %s: layout version %d, this binary speaks %d", path, m.Version, DiskVersion)
		}
		return nil
	case os.IsNotExist(err):
		data, err := json.Marshal(manifest{Version: DiskVersion})
		if err != nil {
			return err
		}
		return writeFileAtomic(path, data)
	default:
		return fmt.Errorf("store: %w", err)
	}
}

// sweep counts complete records and removes temp files left by a crash
// mid-Put (they were never renamed into place, so they are garbage by
// construction).
func (d *Disk) sweep() (int, error) {
	n := 0
	root := filepath.Join(d.dir, objectsDir)
	err := filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			return os.Remove(path)
		}
		n++
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("store: sweep: %w", err)
	}
	return n, nil
}

// recordPath maps a key to its record file: objects/<hh>/<hash>, with the
// 128-bit FNV-1a hash of the key as the name. The key itself is not
// filesystem-safe (it contains '|' and '='), and the record carries it in
// full, so a name collision — astronomically unlikely at 128 bits —
// degrades to a miss, never to a wrong result.
func (d *Disk) recordPath(key string) string {
	h := fnv.New128a()
	h.Write([]byte(key))
	var sum [16]byte
	var name [32]byte
	hex.Encode(name[:], h.Sum(sum[:0]))
	var buf [256]byte
	p := append(buf[:0], d.objects...)
	p = append(p, name[:2]...)
	p = append(p, filepath.Separator)
	return string(append(p, name[:]...))
}

// payloadSum is the FNV-1a 64-bit hash of a record's result payload.
func payloadSum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// appendSum appends sum as the 16 lowercase hex digits a record stores.
func appendSum(b []byte, sum uint64) []byte {
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], sum)
	return hex.AppendEncode(b, raw[:])
}

// resultSum is the checksum of a record's payload, as the record stores it.
func resultSum(res scenario.Result) (string, error) {
	payload, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	var buf [16]byte
	return string(appendSum(buf[:0], payloadSum(payload))), nil
}

// The record file is exactly json.Marshal(record{...}) followed by a
// newline. Put writes it, and Get's fast path recognizes it, as three
// pieces: the head (every field before the result, then `"result":`), the
// marshalled Result, and the tail (the sum and the closing brace).
const (
	sumField = `,"sum":"`
	tailLen  = len(sumField) + 16 + len("\"}\n")
)

// appendRecordHead appends the bytes a record for key (split into id and
// scaleKey) carries before its result payload.
func appendRecordHead(b []byte, key, id, scaleKey string) []byte {
	b = strconv.AppendInt(append(b, `{"version":`...), DiskVersion, 10)
	b = appendJSONString(append(b, `,"key":`...), key)
	b = appendJSONString(append(b, `,"scenario":`...), id)
	b = appendJSONString(append(b, `,"scale":`...), scaleKey)
	return append(b, `,"result":`...)
}

// appendRecordTail appends the bytes a record carries after its result
// payload, whose checksum is sum.
func appendRecordTail(b []byte, sum uint64) []byte {
	return append(appendSum(append(b, sumField...), sum), "\"}\n"...)
}

// appendJSONString appends s as a JSON string quoted byte for byte the way
// encoding/json quotes it. A string that needs no escaping — every key
// the registry mints, non-ASCII series labels included — is copied
// between quotes; any other (one with control bytes, '"', '\\', the HTML
// escapes '<', '>' and '&', U+2028/U+2029 or invalid UTF-8) is quoted by
// encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendMarshalled(b, s)
		}
	}
	if !utf8.ValidString(s) || strings.Contains(s, "\u2028") || strings.Contains(s, "\u2029") {
		return appendMarshalled(b, s)
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendMarshalled appends json.Marshal(s), which cannot fail for a string.
func appendMarshalled(b []byte, s string) []byte {
	q, _ := json.Marshal(s)
	return append(b, q...)
}

// encodeRecord appends the complete record file for res under key: the
// bytes json.Marshal(record{...}) plus a newline would produce, with the
// result marshalled once for both the payload and its checksum.
func encodeRecord(b []byte, key, id, scaleKey string, res scenario.Result) ([]byte, error) {
	payload, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	b = appendRecordHead(b, key, id, scaleKey)
	b = append(b, payload...)
	return appendRecordTail(b, payloadSum(payload)), nil
}

// decodeCanonical is Get's fast path: it accepts data only when it is
// byte for byte the record Put writes for key, and then returns its
// result. Acceptance requires the exact head key implies, the exact tail
// the payload's checksum implies, and a payload that is the canonical
// marshalling of the result it decodes to. Together these make
// data equal to json.Marshal of a record that passes every check of the
// full decode, so the fast path serves exactly what that decode would.
// Anything else — including every corrupt record — reports false and is
// left to the full decode, which alone decides between a miss, a
// quarantine and a non-canonical but valid hit.
func decodeCanonical(data []byte, key string) (scenario.Result, bool) {
	// Invalid UTF-8 in a key does not survive a JSON round trip, so the
	// full decode never matches such a key; neither may the fast path.
	if !utf8.ValidString(key) {
		return scenario.Result{}, false
	}
	id, scaleKey, _, err := scenario.SplitKey(key)
	if err != nil {
		return scenario.Result{}, false
	}
	var buf [1024]byte
	head := appendRecordHead(buf[:0], key, id, scaleKey)
	if len(data) < len(head)+tailLen || !bytes.HasPrefix(data, head) {
		return scenario.Result{}, false
	}
	payload := data[len(head) : len(data)-tailLen]
	var tail [tailLen]byte
	if !bytes.Equal(data[len(data)-tailLen:], appendRecordTail(tail[:0], payloadSum(payload))) {
		return scenario.Result{}, false
	}
	var res scenario.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return scenario.Result{}, false
	}
	canon, err := json.Marshal(&res) // res already escapes to Unmarshal; no second copy
	if err != nil || !bytes.Equal(canon, payload) {
		return scenario.Result{}, false
	}
	return res, true
}

// readPool recycles Get's read buffers; records are well under a
// kilobyte, so one buffer per concurrent reader is all a hit allocates
// for its bytes.
var readPool = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

// maxPooledRead caps the buffer size returned to readPool, so one
// oversized (corrupt) file does not pin its size in the pool.
const maxPooledRead = 64 << 10

// Get reads and verifies the record stored under key. A missing record is
// a plain miss; a record that fails any self-check (unparsable JSON, wrong
// record version, checksum mismatch, or a header disagreeing with its own
// key) is moved to the quarantine directory and reported as a miss, so one
// corrupt file costs one recomputation instead of poisoning the store. A
// record whose key differs from the requested one (a hash collision) is
// left in place and reported as a miss.
func (d *Disk) Get(key string) (scenario.Result, bool, error) {
	path := d.recordPath(key)
	bp := readPool.Get().(*[]byte)
	data, err := readRecord(path, (*bp)[:0])
	// Nothing Get returns aliases data: the fast path returns plain
	// numbers, and json.Unmarshal copies every string it decodes.
	defer func() {
		if cap(data) <= maxPooledRead {
			*bp = data[:0]
			readPool.Put(bp)
		}
	}()
	if os.IsNotExist(err) {
		d.misses.Add(1)
		return scenario.Result{}, false, nil
	}
	if err != nil {
		d.errors.Add(1)
		return scenario.Result{}, false, fmt.Errorf("store: %w", err)
	}
	if res, ok := decodeCanonical(data, key); ok {
		d.hits.Add(1)
		return res, true, nil
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		d.quarantine(path, fmt.Sprintf("unparsable record: %v", err))
		return scenario.Result{}, false, nil
	}
	if rec.Key != key {
		// A different key hashed to the same name: that record is valid
		// for its own key, so it stays; this key is simply absent.
		d.misses.Add(1)
		return scenario.Result{}, false, nil
	}
	if reason := rec.verify(); reason != "" {
		d.quarantine(path, reason)
		return scenario.Result{}, false, nil
	}
	d.hits.Add(1)
	return rec.Result, true, nil
}

// verify runs the record's self-checks, returning a human-readable reason
// on the first failure and "" when the record is internally consistent.
func (rec record) verify() string {
	if rec.Version != DiskVersion {
		return fmt.Sprintf("record version %d, want %d", rec.Version, DiskVersion)
	}
	sum, err := resultSum(rec.Result)
	if err != nil || sum != rec.Sum {
		return fmt.Sprintf("checksum mismatch: recorded %s, derived %s", rec.Sum, sum)
	}
	id, scaleKey, _, err := scenario.SplitKey(rec.Key)
	if err != nil {
		return fmt.Sprintf("malformed key: %v", err)
	}
	if id != rec.Scenario || scaleKey != rec.Scale {
		return fmt.Sprintf("header (scenario=%s scale=%s) disagrees with key (scenario=%s scale=%s)",
			rec.Scenario, rec.Scale, id, scaleKey)
	}
	return ""
}

// quarantine moves a failed record out of the object tree (keeping its
// hashed name) so the next Get recomputes, and the operator can inspect
// what went wrong. Removal failures fall back to deletion; the one thing
// that must not happen is serving the record again. Concurrent Gets of one
// corrupt record each count their miss, but only the one whose rename (or
// removal) took the file away counts the quarantine and the lost entry.
func (d *Disk) quarantine(path, reason string) {
	d.misses.Add(1)
	dst := filepath.Join(d.dir, quarantineDir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		if os.Remove(path) == nil {
			d.quarantined.Add(1)
			d.entries.Add(-1)
		}
		return
	}
	d.quarantined.Add(1)
	d.entries.Add(-1)
	// Best-effort sidecar naming the failure, for post-mortems.
	os.WriteFile(dst+".reason", []byte(reason+"\n"), 0o644)
}

// Put persists the result under key: marshal the self-verifying record,
// write it to a temp file in the final fan-out directory, then rename into
// place. The rename is atomic on POSIX filesystems, so concurrent readers
// see either no record or a complete one, and a crash at any instant
// leaves the store consistent.
func (d *Disk) Put(key string, res scenario.Result) error {
	id, scaleKey, _, err := scenario.SplitKey(key)
	if err != nil {
		d.errors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	data, err := encodeRecord(make([]byte, 0, 2*len(key)+256), key, id, scaleKey, res)
	if err != nil {
		d.errors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	path := d.recordPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		d.errors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPrefix+filepath.Base(path)+"-*")
	if err != nil {
		d.errors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		d.errors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		d.errors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	d.renameMu.Lock()
	_, statErr := os.Stat(path)
	fresh := os.IsNotExist(statErr)
	if err := os.Rename(tmp.Name(), path); err != nil {
		d.renameMu.Unlock()
		os.Remove(tmp.Name())
		d.errors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	if fresh {
		d.entries.Add(1)
	}
	d.renameMu.Unlock()
	d.puts.Add(1)
	d.bytesWritten.Add(uint64(len(data)))
	return nil
}

// Len returns the stored record count (maintained incrementally; exact
// as of the last Open plus this process's Puts and quarantines).
func (d *Disk) Len() int { return int(d.entries.Load()) }

// Stats snapshots the disk counters.
func (d *Disk) Stats() Stats {
	return Stats{
		Kind:         "disk",
		Hits:         d.hits.Load(),
		Misses:       d.misses.Load(),
		Puts:         d.puts.Load(),
		Entries:      d.Len(),
		BytesWritten: d.bytesWritten.Load(),
		Quarantined:  d.quarantined.Load(),
		Errors:       d.errors.Load(),
	}
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// Close releases nothing — every Put is durable when it returns — but is
// part of the contract so future backends holding descriptors or
// connections can hook it.
func (d *Disk) Close() error { return nil }

// writeFileAtomic writes data to path via temp-file-then-rename, the same
// crash-safety discipline Put uses.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPrefix+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
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
