package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pbbf/internal/experiments"
	"pbbf/internal/store"
)

// serveHitSeeds is the working set of BenchmarkServeHit: one fig17 quick
// request per root seed, twelve points each.
const serveHitSeeds = 48

// BenchmarkServeHit serves single-scenario runs (fig17, quick,
// "workers":1) of the real registry over loopback HTTP from a
// Tiered(memory, disk) store that already holds every point, cycling
// through 48 seeds. In "mem" every point is a memory hit (the default
// memory tier holds the working set); in "disk" the memory tier has one
// shard of 32 entries, so every point misses memory, is read from disk
// and promoted. It reports allocations per request, client included.
func BenchmarkServeHit(b *testing.B) {
	for _, tc := range []struct {
		name            string
		shards, entries int
	}{{"mem", DefaultCacheShards, DefaultCacheCapacity}, {"disk", 1, 32}} {
		b.Run(tc.name, func(b *testing.B) {
			dir := b.TempDir()
			bodies := make([]string, serveHitSeeds)
			for i := range bodies {
				bodies[i] = `{"experiment":"fig17","scale":"quick","seed":` + strconv.Itoa(i+1) + `,"workers":1}`
			}
			// Fill the disk store once, then serve from a fresh process
			// view of it: the memory tier starts empty.
			fill := serveHitNode(b, dir, DefaultCacheShards, DefaultCacheCapacity)
			for _, body := range bodies {
				serveHitPost(b, fill, body)
			}
			fill.Close()
			ts := serveHitNode(b, dir, tc.shards, tc.entries)
			defer ts.Close()
			for _, body := range bodies {
				serveHitPost(b, ts, body)
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				serveHitPost(b, ts, bodies[i%len(bodies)])
				i++
			}
		})
	}
}

// serveHitNode serves the real registry over a memory tier of the given
// size tiered over the disk store in dir.
func serveHitNode(b *testing.B, dir string, shards, entries int) *httptest.Server {
	b.Helper()
	mem, err := store.NewMemory(shards, entries)
	if err != nil {
		b.Fatal(err)
	}
	disk, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Options{Registry: experiments.Registry(), Results: store.Tiered(mem, disk)})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	b.Cleanup(func() { srv.Close() })
	return ts
}

// serveHitPost posts one run and reads its stream, failing on anything
// but a complete stream.
func serveHitPost(b *testing.B, ts *httptest.Server, body string) {
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `{"type":"done"`) {
		b.Fatalf("status %d, err %v: %.200s", resp.StatusCode, err, data)
	}
}
