package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"pbbf/internal/store"
)

var (
	wallMSField  = regexp.MustCompile(`"wall_ms":[^,]+,`)
	uptimeSField = regexp.MustCompile(`"uptime_s":[^,]+,`)
)

// TestLegacyStatsBytes pins the on-wire bytes of the memory tier's legacy
// "cache" object, in the run stream's done line and in GET /v1/stats,
// over the three store compositions the server builds: the default
// memory tier, a small memory tier over disk (so evictions and
// promotions happen), and an injected store with no visible memory tier.
// Only the timing fields are zeroed. One worker keeps the LRU order, and
// so every counter, deterministic.
func TestLegacyStatsBytes(t *testing.T) {
	inject, err := store.NewMemory(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	bodies := []string{
		`{"experiment":"fast","scale":"quick","seed":1}`,
		`{"experiment":"fast","scale":"quick","seed":2}`,
		`{"experiment":"fast","scale":"quick","seed":2}`,
		`{"experiment":"fast","scale":"quick","seed":1}`,
	}
	cases := []struct {
		name  string
		opts  Options
		done  []string // one done line per body, wall_ms zeroed
		stats string   // GET /v1/stats after the last body, uptime_s zeroed
	}{
		{
			name: "memory",
			opts: Options{},
			done: []string{
				`{"type":"done","jobs":6,"cached_points":0,"wall_ms":0,"cache":{"hits":0,"misses":6,"inflight_joins":0,"evictions":0,"entries":6,"capacity":4096,"shards":16},"store_v1":{"kind":"memory","hits":0,"misses":6,"puts":6,"entries":6,"capacity":4096,"shards":16}}`,
				`{"type":"done","jobs":6,"cached_points":0,"wall_ms":0,"cache":{"hits":0,"misses":12,"inflight_joins":0,"evictions":0,"entries":12,"capacity":4096,"shards":16},"store_v1":{"kind":"memory","hits":0,"misses":12,"puts":12,"entries":12,"capacity":4096,"shards":16}}`,
				`{"type":"done","jobs":6,"cached_points":6,"wall_ms":0,"cache":{"hits":6,"misses":12,"inflight_joins":0,"evictions":0,"entries":12,"capacity":4096,"shards":16},"store_v1":{"kind":"memory","hits":6,"misses":12,"puts":12,"entries":12,"capacity":4096,"shards":16}}`,
				`{"type":"done","jobs":6,"cached_points":6,"wall_ms":0,"cache":{"hits":12,"misses":12,"inflight_joins":0,"evictions":0,"entries":12,"capacity":4096,"shards":16},"store_v1":{"kind":"memory","hits":12,"misses":12,"puts":12,"entries":12,"capacity":4096,"shards":16}}`,
			},
			stats: `{
  "schema_version": 2,
  "uptime_s": 0,
  "runs": 4,
  "points_served": 24,
  "cache": {
    "hits": 12,
    "misses": 12,
    "inflight_joins": 0,
    "evictions": 0,
    "entries": 12,
    "capacity": 4096,
    "shards": 16
  },
  "store_v1": {
    "kind": "memory",
    "hits": 12,
    "misses": 12,
    "puts": 12,
    "entries": 12,
    "capacity": 4096,
    "shards": 16
  },
  "flight_v1": {
    "computes": 12,
    "joins": 0,
    "active": 0
  },
  "limits_v1": {
    "rate_limit_enabled": false,
    "rate_limited": 0,
    "clients": 0,
    "shed": 0,
    "running": 0,
    "waiting": 0,
    "max_concurrent_runs": 2,
    "queue_depth": 4,
    "retry_after_s": 1
  }
}
`,
		},
		{
			name: "memory over disk",
			opts: Options{Mem: CacheOptions{Shards: 2, Entries: 8}, Disk: StoreOptions{Dir: t.TempDir()}},
			done: []string{
				`{"type":"done","jobs":6,"cached_points":0,"wall_ms":0,"cache":{"hits":0,"misses":6,"inflight_joins":0,"evictions":0,"entries":6,"capacity":8,"shards":2},"store_v1":{"kind":"tiered","hits":0,"misses":6,"puts":6,"entries":6,"tiers":[{"kind":"memory","hits":0,"misses":6,"puts":6,"entries":6,"capacity":8,"shards":2},{"kind":"disk","hits":0,"misses":6,"puts":6,"entries":6,"bytes_written":2794}]}}`,
				`{"type":"done","jobs":6,"cached_points":0,"wall_ms":0,"cache":{"hits":0,"misses":12,"inflight_joins":0,"evictions":4,"entries":8,"capacity":8,"shards":2},"store_v1":{"kind":"tiered","hits":0,"misses":12,"puts":12,"entries":12,"tiers":[{"kind":"memory","hits":0,"misses":12,"puts":12,"entries":8,"evictions":4,"capacity":8,"shards":2},{"kind":"disk","hits":0,"misses":12,"puts":12,"entries":12,"bytes_written":5588}]}}`,
				`{"type":"done","jobs":6,"cached_points":6,"wall_ms":0,"cache":{"hits":6,"misses":12,"inflight_joins":0,"evictions":4,"entries":8,"capacity":8,"shards":2},"store_v1":{"kind":"tiered","hits":6,"misses":12,"puts":12,"entries":12,"tiers":[{"kind":"memory","hits":6,"misses":12,"puts":12,"entries":8,"evictions":4,"capacity":8,"shards":2},{"kind":"disk","hits":0,"misses":12,"puts":12,"entries":12,"bytes_written":5588}]}}`,
				`{"type":"done","jobs":6,"cached_points":6,"wall_ms":0,"cache":{"hits":6,"misses":18,"inflight_joins":0,"evictions":10,"entries":8,"capacity":8,"shards":2},"store_v1":{"kind":"tiered","hits":12,"misses":12,"puts":12,"entries":12,"tiers":[{"kind":"memory","hits":6,"misses":18,"puts":18,"entries":8,"evictions":10,"capacity":8,"shards":2},{"kind":"disk","hits":6,"misses":12,"puts":12,"entries":12,"bytes_written":5588}]}}`,
			},
			stats: `{
  "schema_version": 2,
  "uptime_s": 0,
  "runs": 4,
  "points_served": 24,
  "cache": {
    "hits": 6,
    "misses": 18,
    "inflight_joins": 0,
    "evictions": 10,
    "entries": 8,
    "capacity": 8,
    "shards": 2
  },
  "store_v1": {
    "kind": "tiered",
    "hits": 12,
    "misses": 12,
    "puts": 12,
    "entries": 12,
    "tiers": [
      {
        "kind": "memory",
        "hits": 6,
        "misses": 18,
        "puts": 18,
        "entries": 8,
        "evictions": 10,
        "capacity": 8,
        "shards": 2
      },
      {
        "kind": "disk",
        "hits": 6,
        "misses": 12,
        "puts": 12,
        "entries": 12,
        "bytes_written": 5588
      }
    ]
  },
  "flight_v1": {
    "computes": 12,
    "joins": 0,
    "active": 0
  },
  "limits_v1": {
    "rate_limit_enabled": false,
    "rate_limited": 0,
    "clients": 0,
    "shed": 0,
    "running": 0,
    "waiting": 0,
    "max_concurrent_runs": 2,
    "queue_depth": 4,
    "retry_after_s": 1
  }
}
`,
		},
		{
			name: "injected",
			opts: Options{Results: inject},
			done: []string{
				`{"type":"done","jobs":6,"cached_points":0,"wall_ms":0,"cache":{"hits":0,"misses":0,"inflight_joins":0,"evictions":0,"entries":0,"capacity":0,"shards":0},"store_v1":{"kind":"memory","hits":0,"misses":6,"puts":6,"entries":6,"capacity":8,"shards":2}}`,
				`{"type":"done","jobs":6,"cached_points":0,"wall_ms":0,"cache":{"hits":0,"misses":0,"inflight_joins":0,"evictions":0,"entries":0,"capacity":0,"shards":0},"store_v1":{"kind":"memory","hits":0,"misses":12,"puts":12,"entries":8,"evictions":4,"capacity":8,"shards":2}}`,
				`{"type":"done","jobs":6,"cached_points":6,"wall_ms":0,"cache":{"hits":0,"misses":0,"inflight_joins":0,"evictions":0,"entries":0,"capacity":0,"shards":0},"store_v1":{"kind":"memory","hits":6,"misses":12,"puts":12,"entries":8,"evictions":4,"capacity":8,"shards":2}}`,
				`{"type":"done","jobs":6,"cached_points":0,"wall_ms":0,"cache":{"hits":0,"misses":0,"inflight_joins":0,"evictions":0,"entries":0,"capacity":0,"shards":0},"store_v1":{"kind":"memory","hits":6,"misses":18,"puts":18,"entries":8,"evictions":10,"capacity":8,"shards":2}}`,
			},
			stats: `{
  "schema_version": 2,
  "uptime_s": 0,
  "runs": 4,
  "points_served": 24,
  "cache": {
    "hits": 0,
    "misses": 0,
    "inflight_joins": 0,
    "evictions": 0,
    "entries": 0,
    "capacity": 0,
    "shards": 0
  },
  "store_v1": {
    "kind": "memory",
    "hits": 6,
    "misses": 18,
    "puts": 18,
    "entries": 8,
    "evictions": 10,
    "capacity": 8,
    "shards": 2
  },
  "flight_v1": {
    "computes": 18,
    "joins": 0,
    "active": 0
  },
  "limits_v1": {
    "rate_limit_enabled": false,
    "rate_limited": 0,
    "clients": 0,
    "shed": 0,
    "running": 0,
    "waiting": 0,
    "max_concurrent_runs": 2,
    "queue_depth": 4,
    "retry_after_s": 1
  }
}
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.opts
			o.Registry = testRegistry(t)
			o.MaxWorkers = 1
			o.Limits = LimitOptions{MaxConcurrentRuns: 2, RunQueueDepth: 4}
			srv, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer srv.Close()
			defer ts.Close()
			for i, body := range bodies {
				lines := rawRun(t, ts.URL, body)
				if got := wallMSField.ReplaceAllString(lines[len(lines)-1], `"wall_ms":0,`); got != tc.done[i] {
					t.Errorf("run %d done line:\n got %s\nwant %s", i, got, tc.done[i])
				}
			}
			resp, err := http.Get(ts.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got := uptimeSField.ReplaceAllString(string(raw), `"uptime_s": 0,`); got != tc.stats {
				t.Errorf("/v1/stats:\n got %s\nwant %s", got, tc.stats)
			}
		})
	}
}
