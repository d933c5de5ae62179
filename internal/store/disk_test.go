package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pbbf/internal/scenario"
)

// testKey mints a real canonical PointKey: the disk store's self-checks
// split keys with scenario.SplitKey, so synthetic strings would not pass.
func testKey(t *testing.T, id string, seed uint64, x float64) string {
	t.Helper()
	s := scenario.Quick()
	s.Seed = seed
	return scenario.PointKey(id, s, scenario.Point{
		Series: "a", X: x, Params: map[string]float64{"q": x},
	})
}

func TestDiskRoundTrip(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "fig8", 1, 0.5)
	if _, ok, err := d.Get(key); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	want := scenario.Result{Y: 42, EnergyJ: 1.5, LatencyS: 0.25, Delivery: 1}
	if err := d.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := d.Get(key)
	if !ok || err != nil || got != want {
		t.Fatalf("get: %+v ok=%v err=%v", got, ok, err)
	}
	if d.Len() != 1 {
		t.Fatalf("len %d", d.Len())
	}
	st := d.Stats()
	if st.Kind != "disk" || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.BytesWritten == 0 {
		t.Fatalf("stats %+v", st)
	}

	// Overwriting the same key is idempotent and does not grow the store.
	if err := d.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatalf("len after re-put %d", d.Len())
	}
}

// TestDiskReopen is the durability core: a fresh process (a new Disk on
// the same directory) serves every record byte-for-byte, and leftover temp
// files from a Put interrupted by a crash are swept away.
func TestDiskReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = testKey(t, "fig8", uint64(i+1), 0.5)
		if err := d.Put(keys[i], scenario.Result{Y: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash mid-Put: a temp file that never got renamed.
	torn := filepath.Join(dir, objectsDir, "ab")
	if err := os.MkdirAll(torn, 0o755); err != nil {
		t.Fatal(err)
	}
	tornFile := filepath.Join(torn, tmpPrefix+"crashed")
	if err := os.WriteFile(tornFile, []byte(`{"version":1,"key":"half`), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != len(keys) {
		t.Fatalf("reopened len %d, want %d", d2.Len(), len(keys))
	}
	if _, err := os.Stat(tornFile); !os.IsNotExist(err) {
		t.Fatalf("crash temp file survived reopen: %v", err)
	}
	for i, key := range keys {
		got, ok, err := d2.Get(key)
		if !ok || err != nil || got.Y != float64(i) {
			t.Fatalf("key %d after reopen: %+v ok=%v err=%v", i, got, ok, err)
		}
	}
}

func TestDiskManifestVersionGate(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future-version store accepted: %v", err)
	}
}

// corruptions mutate a valid record for Result{Y: 42} in every way the
// self-checks must catch.
var corruptions = []struct {
	name    string
	corrupt func(data []byte) []byte
}{
	{"truncated", func(data []byte) []byte { return data[:len(data)/2] }},
	{"not json", func(data []byte) []byte { return []byte("!!definitely not json!!") }},
	{"payload flipped", func(data []byte) []byte {
		return []byte(strings.Replace(string(data), `"y":42`, `"y":43`, 1))
	}},
	{"wrong record version", func(data []byte) []byte {
		return []byte(strings.Replace(string(data), `"version":1`, `"version":7`, 1))
	}},
	{"header disagrees with key", func(data []byte) []byte {
		return []byte(strings.Replace(string(data), `"scenario":"fig8"`, `"scenario":"fig9"`, 1))
	}},
}

// TestDiskQuarantine applies every corruption to a stored record; each one
// must quarantine the file and turn the Get into a miss.
func TestDiskQuarantine(t *testing.T) {
	key := testKey(t, "fig8", 1, 0.5)
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Put(key, scenario.Result{Y: 42}); err != nil {
				t.Fatal(err)
			}
			path := d.recordPath(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := d.Get(key); ok || err != nil {
				t.Fatalf("corrupt record served: ok=%v err=%v", ok, err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt record still in object tree: %v", err)
			}
			moved, err := os.ReadDir(filepath.Join(dir, quarantineDir))
			if err != nil || len(moved) == 0 {
				t.Fatalf("quarantine empty: %v", err)
			}
			st := d.Stats()
			if st.Quarantined != 1 || st.Entries != 0 {
				t.Fatalf("stats after quarantine: %+v", st)
			}
			// The slot is recomputable: a fresh Put must serve again.
			if err := d.Put(key, scenario.Result{Y: 42}); err != nil {
				t.Fatal(err)
			}
			if got, ok, _ := d.Get(key); !ok || got.Y != 42 {
				t.Fatalf("slot not recomputable after quarantine: %+v ok=%v", got, ok)
			}
		})
	}
}

// TestDiskConcurrent hammers one store with mixed Get/Put across keys,
// including colliding writers on the same key — run under -race this is
// the concurrency proof for the serving path's shared store.
func TestDiskConcurrent(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const keyCount = 16
	keys := make([]string, keyCount)
	for i := range keys {
		keys[i] = testKey(t, "fig8", uint64(i+1), 0.5)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := keys[(w+i)%keyCount]
				want := float64((w + i) % keyCount)
				if i%3 == 0 {
					if err := d.Put(key, scenario.Result{Y: want}); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				got, ok, err := d.Get(key)
				if err != nil {
					t.Error(err)
					return
				}
				if ok && got.Y != want {
					t.Errorf("key %s: got %v want %v", key, got.Y, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d.Len() != keyCount {
		t.Fatalf("len %d, want %d", d.Len(), keyCount)
	}
	if st := d.Stats(); st.Errors != 0 || st.Quarantined != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDiskConcurrentQuarantine has several readers hit one corrupt record
// at once: every reader counts its miss, but the record is quarantined —
// and leaves the entry count — exactly once, whoever moves it.
func TestDiskConcurrentQuarantine(t *testing.T) {
	const readers = 4
	key := testKey(t, "fig8", 1, 0.5)
	for trial := 0; trial < 200; trial++ {
		d, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Put(key, scenario.Result{Y: 42}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d.recordPath(key), []byte("!!definitely not json!!"), 0o644); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, ok, err := d.Get(key); ok || err != nil {
					t.Errorf("corrupt record served: ok=%v err=%v", ok, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if st := d.Stats(); st.Quarantined != 1 || st.Entries != 0 || st.Misses != readers {
			t.Fatalf("trial %d: stats %+v, want 1 quarantined, 0 entries, %d misses", trial, st, readers)
		}
	}
}

// goldenRecords pin the record format: each file under testdata is the
// exact bytes the store wrote for its key and result before Put assembled
// records from parts. Together they cover a multi-field result, an
// exponent-form float, and a series label with non-ASCII text.
var goldenRecords = []struct {
	file string
	key  string
	res  scenario.Result
}{
	{
		"fig17_v1.record",
		"fig17|grid=30x30|iu=4|pt=40|pg=10,20,30|nn=30|nr=3|nd=300000000000|q=0,0.25,0.5,0.75,1|pi=0.05,0.25,0.5,0.75|pn=0.1,0.5|ds=8,12,16|hop=10,20|nth=2,5|duty=0.1,0.2,0.5,1|seed=7|series=PBBF-0.5|x=12|delta=12|p=0.5|q=0.25",
		scenario.Result{Y: 0.7233333333333334, EnergyJ: 0.7233333333333334, LatencyS: 12.536666666666667, Delivery: 0.9861111111111112},
	},
	{
		"exthetero_v1.record",
		"exthetero|grid=30x30|iu=4|pt=40|pg=10,20,30|nn=30|nr=3|nd=300000000000|q=0,0.25,0.5,0.75,1|pi=0.05,0.25,0.5,0.75|pn=0.1,0.5|ds=8,12,16|hop=10,20|nth=2,5|duty=0.1,0.2,0.5,1|seed=7|series=PSM (p=0, q=0.3±spread)|x=0.1|p=0|q=0.3|spread=0.1",
		scenario.Result{Y: 0.8125, EnergyJ: 0.30166666666666664, LatencyS: 4.2e-07, Delivery: 0.8125},
	},
}

// TestDiskGoldenRecords: Put writes exactly the committed bytes, and the
// committed bytes — a record from an earlier build — load as a fast-path
// hit in a fresh store.
func TestDiskGoldenRecords(t *testing.T) {
	for _, g := range goldenRecords {
		t.Run(g.file, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			d, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Put(g.key, g.res); err != nil {
				t.Fatal(err)
			}
			written, err := os.ReadFile(d.recordPath(g.key))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(written, golden) {
				t.Fatalf("Put wrote\n%s\nwant\n%s", written, golden)
			}

			old, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			placeRecord(t, old, g.key, golden)
			if got, ok, err := old.Get(g.key); !ok || err != nil || got != g.res {
				t.Fatalf("earlier record: %+v ok=%v err=%v, want %+v", got, ok, err, g.res)
			}
			if got, ok := decodeCanonical(golden, g.key); !ok || got != g.res {
				t.Fatalf("earlier record missed the fast path: %+v ok=%v", got, ok)
			}
		})
	}
}

// placeRecord writes data as key's record file, as a copy from another
// store or an earlier build would arrive.
func placeRecord(t *testing.T, d *Disk, key string, data []byte) {
	t.Helper()
	path := d.recordPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiskNonCanonicalRecordServed: a valid record in another JSON layout
// misses the fast path but is still a hit through the full decode, and is
// not quarantined.
func TestDiskNonCanonicalRecordServed(t *testing.T) {
	g := goldenRecords[0]
	golden, err := os.ReadFile(filepath.Join("testdata", g.file))
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, golden, "", "  "); err != nil {
		t.Fatal(err)
	}
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	placeRecord(t, d, g.key, indented.Bytes())
	if _, ok := decodeCanonical(indented.Bytes(), g.key); ok {
		t.Fatal("indented record took the fast path")
	}
	if got, ok, err := d.Get(g.key); !ok || err != nil || got != g.res {
		t.Fatalf("indented record: %+v ok=%v err=%v", got, ok, err)
	}
	if _, err := os.Stat(d.recordPath(g.key)); err != nil {
		t.Fatalf("indented record moved: %v", err)
	}
	if st := d.Stats(); st.Hits != 1 || st.Quarantined != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDiskCollisionLeftInPlace: a valid record for key B found at key A's
// path (what a hash-name collision looks like) is a miss for A and stays
// where it is, since it is still B's answer.
func TestDiskCollisionLeftInPlace(t *testing.T) {
	a, b := goldenRecords[0], goldenRecords[1]
	recB, err := os.ReadFile(filepath.Join("testdata", b.file))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	placeRecord(t, d, a.key, recB)
	if got, ok, err := d.Get(a.key); ok || err != nil {
		t.Fatalf("colliding record served for the wrong key: %+v ok=%v err=%v", got, ok, err)
	}
	if data, err := os.ReadFile(d.recordPath(a.key)); err != nil || !bytes.Equal(data, recB) {
		t.Fatalf("colliding record disturbed: err=%v", err)
	}
	if st := d.Stats(); st.Misses != 1 || st.Quarantined != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// FuzzDiskRecord checks the disk record format from both sides.
//
// Reading: for arbitrary bytes at a key's path, Get never panics, and the
// fast path accepts only records the full decode-and-verify also accepts,
// with an equal result. Writing: for arbitrary keys and results, the bytes
// Put assembles from parts equal json.Marshal of the record plus a
// newline, with the checksum spelled the way the format defines it.
func FuzzDiskRecord(f *testing.F) {
	s := scenario.Quick()
	keys := []string{
		scenario.PointKey("fig17", s, scenario.Point{Series: "PBBF-0.5", X: 12, Params: map[string]float64{"delta": 12, "p": 0.5, "q": 0.25}}),
		scenario.PointKey("exthetero", s, scenario.Point{Series: "PSM (p=0, q=0.3±spread)", X: 0.1, Params: map[string]float64{"p": 0, "q": 0.3, "spread": 0.1}}),
		scenario.PointKey("fig8", s, scenario.Point{Series: "PBBF <p&q>", X: 0.5, Params: map[string]float64{"q": 0.5}}),
	}
	var seeds [][]byte
	for _, key := range keys {
		id, scaleKey, _, err := scenario.SplitKey(key)
		if err != nil {
			f.Fatal(err)
		}
		rec, err := encodeRecord(nil, key, id, scaleKey, scenario.Result{Y: 42})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, rec)
	}
	for _, c := range corruptions { // the fig8 record is the one they target
		seeds = append(seeds, c.corrupt(bytes.Clone(seeds[2])))
	}
	for _, g := range goldenRecords {
		golden, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, golden)
	}
	// Keys for the writing side, with every byte class JSON quoting treats
	// differently.
	quoted := []string{keys[0], keys[1], keys[2], "ctl\x00\b\f\n\r\t\x1f\x7f\"\\", "sep\u2028\u2029", "bad\xff\xc3utf8"}
	for i, data := range seeds {
		f.Add(data, quoted[i%len(quoted)], 0.5, 1.25, 3e-9, i%2 == 1)
	}

	d, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, key string, y, energyJ, latencyS float64, skip bool) {
		for _, k := range keys {
			got, fast := decodeCanonical(data, k)
			want, full := fullDecode(data, k)
			if fast && (!full || got != want) {
				t.Fatalf("fast path accepted %q for %s as %+v; full decode ok=%v %+v", data, k, got, full, want)
			}
		}
		// Get itself, on disk, for one key per input.
		k := keys[len(data)%len(keys)]
		want, full := fullDecode(data, k)
		placeRecord(t, d, k, data)
		if got, ok, err := d.Get(k); ok != full || ok && got != want || err != nil {
			t.Fatalf("Get %q for %s: %+v ok=%v err=%v; full decode ok=%v %+v", data, k, got, ok, err, full, want)
		}

		// The writing side splits the key anywhere, even inside a rune, so
		// every field sees arbitrary bytes.
		res := scenario.Result{Y: y, EnergyJ: energyJ, LatencyS: latencyS, Skip: skip}
		id, scaleKey := key[:len(key)/2], key[len(key)/2:]
		encoded, err := encodeRecord(nil, key, id, scaleKey, res)
		payload, perr := json.Marshal(res)
		if (err != nil) != (perr != nil) {
			t.Fatalf("encodeRecord err=%v, json.Marshal err=%v", err, perr)
		}
		if err != nil {
			return
		}
		h := fnv.New64a()
		h.Write(payload)
		rec, err := json.Marshal(record{
			Version:  DiskVersion,
			Key:      key,
			Scenario: id,
			Scale:    scaleKey,
			Result:   res,
			Sum:      fmt.Sprintf("%016x", h.Sum64()),
		})
		if err != nil {
			t.Fatal(err)
		}
		if rec = append(rec, '\n'); !bytes.Equal(encoded, rec) {
			t.Fatalf("record bytes differ:\n got %q\nwant %q", encoded, rec)
		}
	})
}

// fullDecode is the reference read: the whole-record decode and the
// self-checks Get falls back to, reporting whether they accept data as
// key's record.
func fullDecode(data []byte, key string) (scenario.Result, bool) {
	var rec record
	ok := json.Unmarshal(data, &rec) == nil && rec.Key == key && rec.verify() == ""
	return rec.Result, ok
}

func TestDiskRejectsMalformedKey(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("not a canonical key", scenario.Result{Y: 1}); err == nil {
		t.Fatal("malformed key accepted")
	}
	if st := d.Stats(); st.Errors != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestDiskLayoutFanOut pins the record fan-out: records land under
// objects/<hh>/ where <hh> is the first two hex digits of the key hash, so
// a million-point store never piles every file into one directory.
func TestDiskLayoutFanOut(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "fig8", 1, 0.5)
	path := d.recordPath(key)
	rel, err := filepath.Rel(d.Dir(), path)
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(rel, string(filepath.Separator))
	if len(parts) != 3 || parts[0] != objectsDir || len(parts[1]) != 2 || !strings.HasPrefix(parts[2], parts[1]) {
		t.Fatalf("unexpected layout %q", rel)
	}
	if len(parts[2]) != 32 { // 128-bit hash in hex
		t.Fatalf("record name %q not a 128-bit hash", parts[2])
	}
}

// BenchmarkDiskGet reads one stored hit of a realistic record: a fig17
// key and a multi-field result.
func BenchmarkDiskGet(b *testing.B) {
	d, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	g := goldenRecords[0]
	if err := d.Put(g.key, g.res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := d.Get(g.key); !ok {
			b.Fatal("miss")
		}
	}
}

func ExampleOpen() {
	dir, _ := os.MkdirTemp("", "store")
	defer os.RemoveAll(dir)
	d, _ := Open(dir)
	s := scenario.Quick()
	key := scenario.PointKey("fig8", s, scenario.Point{Series: "a", X: 0, Params: map[string]float64{"q": 0}})
	d.Put(key, scenario.Result{Y: 3.5})
	res, ok, _ := d.Get(key)
	fmt.Println(ok, res.Y)
	// Output: true 3.5
}
