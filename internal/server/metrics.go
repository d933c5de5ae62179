package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"pbbf/internal/dist"
	"pbbf/internal/store"
)

// latencyBuckets are the request-duration histogram bounds in seconds,
// spanning cache hits (sub-millisecond) through paper-scale sweep streams
// (tens of seconds). An implicit +Inf bucket follows the last bound.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10}

// metricSet accumulates per-route request counters and latency
// histograms. Everything else /metrics exposes — store, flight, limiter
// — is read live from the owning component at scrape time, so those
// counters exist exactly once instead of being mirrored here.
type metricSet struct {
	mu        sync.Mutex
	requests  map[requestKey]uint64
	durations map[string]*histogram // by route
}

// requestKey labels one requests-total series. Routes are mux patterns
// ("POST /v1/run"), never raw paths, so the label set stays bounded.
type requestKey struct {
	route  string
	method string
	code   int
}

// histogram is a fixed-bucket latency histogram in Prometheus's
// cumulative-exposition shape.
type histogram struct {
	counts []uint64 // per bucket; last is +Inf
	sum    float64
	total  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(seconds float64) {
	i := 0
	for i < len(latencyBuckets) && seconds > latencyBuckets[i] {
		i++
	}
	h.counts[i]++
	h.sum += seconds
	h.total++
}

func newMetricSet() *metricSet {
	return &metricSet{
		requests:  make(map[requestKey]uint64),
		durations: make(map[string]*histogram),
	}
}

func (m *metricSet) observe(route, method string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[requestKey{route, method, code}]++
	h := m.durations[route]
	if h == nil {
		h = newHistogram()
		m.durations[route] = h
	}
	h.observe(d.Seconds())
}

// escapeLabel escapes a Prometheus label value (backslash, quote,
// newline are the only special characters in the text exposition).
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// handleMetrics serves the Prometheus text exposition (version 0.0.4).
// Hand-rolled: the repo takes no dependencies, and the format is lines.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	s.metrics.writeRequests(&b)
	s.writeServingMetrics(&b)
	if s.coord != nil {
		writeCoordinatorMetrics(&b, s.coord.Snapshot())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String())) //nolint:errcheck // response already committed
}

// writeRequests emits the per-route counter and histogram families in
// sorted series order, so scrapes are diffable.
func (m *metricSet) writeRequests(b *strings.Builder) {
	m.mu.Lock()
	defer m.mu.Unlock()

	keys := make([]requestKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		if keys[i].method != keys[j].method {
			return keys[i].method < keys[j].method
		}
		return keys[i].code < keys[j].code
	})
	b.WriteString("# HELP pbbf_http_requests_total Requests served, by mux route, method, and status code.\n")
	b.WriteString("# TYPE pbbf_http_requests_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(b, "pbbf_http_requests_total{route=%q,method=%q,code=\"%d\"} %d\n",
			escapeLabel(k.route), escapeLabel(k.method), k.code, m.requests[k])
	}

	routes := make([]string, 0, len(m.durations))
	for route := range m.durations {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	b.WriteString("# HELP pbbf_http_request_duration_seconds Request latency, by mux route.\n")
	b.WriteString("# TYPE pbbf_http_request_duration_seconds histogram\n")
	for _, route := range routes {
		h := m.durations[route]
		label := escapeLabel(route)
		cum := uint64(0)
		for i, bound := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(b, "pbbf_http_request_duration_seconds_bucket{route=%q,le=\"%g\"} %d\n", label, bound, cum)
		}
		fmt.Fprintf(b, "pbbf_http_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", label, h.total)
		fmt.Fprintf(b, "pbbf_http_request_duration_seconds_sum{route=%q} %g\n", label, h.sum)
		fmt.Fprintf(b, "pbbf_http_request_duration_seconds_count{route=%q} %d\n", label, h.total)
	}
}

// writeServingMetrics emits the serving-path families read live from the
// store, flight, and limit layers.
func (s *Server) writeServingMetrics(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP pbbf_uptime_seconds Seconds since the server started.\n# TYPE pbbf_uptime_seconds gauge\npbbf_uptime_seconds %g\n", time.Since(s.start).Seconds())
	fmt.Fprintf(b, "# HELP pbbf_runs_total POST /v1/run requests admitted.\n# TYPE pbbf_runs_total counter\npbbf_runs_total %d\n", s.runs.Load())
	fmt.Fprintf(b, "# HELP pbbf_points_served_total Result points streamed to clients.\n# TYPE pbbf_points_served_total counter\npbbf_points_served_total %d\n", s.pointsServed.Load())

	cs := s.cacheStats()
	fmt.Fprintf(b, "# HELP pbbf_cache_hits_total Memory-tier cache hits.\n# TYPE pbbf_cache_hits_total counter\npbbf_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(b, "# HELP pbbf_cache_misses_total Memory-tier cache misses.\n# TYPE pbbf_cache_misses_total counter\npbbf_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(b, "# HELP pbbf_cache_evictions_total Memory-tier LRU evictions.\n# TYPE pbbf_cache_evictions_total counter\npbbf_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(b, "# HELP pbbf_cache_entries Memory-tier resident entries.\n# TYPE pbbf_cache_entries gauge\npbbf_cache_entries %d\n", cs.Entries)

	fmt.Fprintf(b, "# HELP pbbf_flight_computes_total Store misses that led a flight and called compute; a repeated point counts here though it reuses its leader's simulation.\n# TYPE pbbf_flight_computes_total counter\npbbf_flight_computes_total %d\n", s.flight.Computes())
	fmt.Fprintf(b, "# HELP pbbf_flight_joins_total Requests that joined another caller's in-flight computation.\n# TYPE pbbf_flight_joins_total counter\npbbf_flight_joins_total %d\n", s.flight.Joins())
	fmt.Fprintf(b, "# HELP pbbf_points_inflight Point computations running right now.\n# TYPE pbbf_points_inflight gauge\npbbf_points_inflight %d\n", s.flight.Active())

	writeStoreMetrics(b, s.results.Stats())

	ls := s.limitStats()
	fmt.Fprintf(b, "# HELP pbbf_rate_limited_total Requests denied by a client token bucket.\n# TYPE pbbf_rate_limited_total counter\npbbf_rate_limited_total %d\n", ls.RateLimited)
	fmt.Fprintf(b, "# HELP pbbf_rate_limit_clients Client buckets currently tracked.\n# TYPE pbbf_rate_limit_clients gauge\npbbf_rate_limit_clients %d\n", ls.Clients)
	fmt.Fprintf(b, "# HELP pbbf_runs_shed_total Runs shed because the admission queue was full.\n# TYPE pbbf_runs_shed_total counter\npbbf_runs_shed_total %d\n", ls.Shed)
	fmt.Fprintf(b, "# HELP pbbf_runs_running Runs holding an admission slot.\n# TYPE pbbf_runs_running gauge\npbbf_runs_running %d\n", ls.Running)
	fmt.Fprintf(b, "# HELP pbbf_runs_waiting Runs queued for an admission slot.\n# TYPE pbbf_runs_waiting gauge\npbbf_runs_waiting %d\n", ls.Waiting)
}

// writeCoordinatorMetrics emits the distributed-sweep families from one
// coordinator snapshot: queue position, requeue/stale counters, the
// worker population by state, and per-worker point counters (labeled by
// worker ID — bounded by the fleet size, which the operator controls).
func writeCoordinatorMetrics(b *strings.Builder, snap dist.WorkersResponse) {
	q := snap.Queue
	fmt.Fprintf(b, "# HELP pbbf_coord_points_pending Points awaiting a lease.\n# TYPE pbbf_coord_points_pending gauge\npbbf_coord_points_pending %d\n", q.Pending)
	fmt.Fprintf(b, "# HELP pbbf_coord_points_leased Points currently leased to workers.\n# TYPE pbbf_coord_points_leased gauge\npbbf_coord_points_leased %d\n", q.Leased)
	fmt.Fprintf(b, "# HELP pbbf_coord_points_completed_total Points resolved successfully.\n# TYPE pbbf_coord_points_completed_total counter\npbbf_coord_points_completed_total %d\n", q.Done)
	fmt.Fprintf(b, "# HELP pbbf_coord_points_failed_total Points resolved as permanent failures.\n# TYPE pbbf_coord_points_failed_total counter\npbbf_coord_points_failed_total %d\n", q.Failed)
	fmt.Fprintf(b, "# HELP pbbf_coord_points_total Points enqueued over the sweep's lifetime.\n# TYPE pbbf_coord_points_total counter\npbbf_coord_points_total %d\n", q.Total)
	fmt.Fprintf(b, "# HELP pbbf_coord_requeues_total Leases returned to the queue (expiry, worker death, quarantine, retryable failure).\n# TYPE pbbf_coord_requeues_total counter\npbbf_coord_requeues_total %d\n", q.Requeues)
	fmt.Fprintf(b, "# HELP pbbf_coord_stale_results_total Duplicate or late results ignored.\n# TYPE pbbf_coord_stale_results_total counter\npbbf_coord_stale_results_total %d\n", q.StaleResults)
	closed := 0
	if q.Closed {
		closed = 1
	}
	fmt.Fprintf(b, "# HELP pbbf_coord_closed Whether the sweep has completed and workers are being dismissed.\n# TYPE pbbf_coord_closed gauge\npbbf_coord_closed %d\n", closed)

	var live, dead, quarantined int
	for _, w := range snap.Workers {
		switch {
		case w.Quarantined:
			quarantined++
		case w.Alive:
			live++
		default:
			dead++
		}
	}
	b.WriteString("# HELP pbbf_coord_workers Registered workers, by state.\n# TYPE pbbf_coord_workers gauge\n")
	fmt.Fprintf(b, "pbbf_coord_workers{state=\"live\"} %d\n", live)
	fmt.Fprintf(b, "pbbf_coord_workers{state=\"dead\"} %d\n", dead)
	fmt.Fprintf(b, "pbbf_coord_workers{state=\"quarantined\"} %d\n", quarantined)

	workers := make([]dist.WorkerInfo, len(snap.Workers))
	copy(workers, snap.Workers)
	sort.Slice(workers, func(i, j int) bool { return workers[i].ID < workers[j].ID })
	b.WriteString("# HELP pbbf_coord_worker_completed_total Points completed, by worker.\n# TYPE pbbf_coord_worker_completed_total counter\n")
	for _, w := range workers {
		fmt.Fprintf(b, "pbbf_coord_worker_completed_total{worker=%q} %d\n", escapeLabel(w.ID), w.Completed)
	}
	b.WriteString("# HELP pbbf_coord_worker_failed_total Points failed, by worker.\n# TYPE pbbf_coord_worker_failed_total counter\n")
	for _, w := range workers {
		fmt.Fprintf(b, "pbbf_coord_worker_failed_total{worker=%q} %d\n", escapeLabel(w.ID), w.Failed)
	}
}

// writeStoreMetrics flattens the store snapshot into per-tier series. A
// tiered store contributes one series per tier labeled by its kind; a
// single-tier store is its own only tier.
func writeStoreMetrics(b *strings.Builder, st store.Stats) {
	tiers := st.Tiers
	if len(tiers) == 0 {
		tiers = []store.Stats{st}
	}
	families := []struct {
		name, help, typ string
		value           func(store.Stats) uint64
	}{
		{"pbbf_store_hits_total", "Store lookups served, by tier.", "counter", func(t store.Stats) uint64 { return t.Hits }},
		{"pbbf_store_misses_total", "Store lookups missed, by tier.", "counter", func(t store.Stats) uint64 { return t.Misses }},
		{"pbbf_store_puts_total", "Results written, by tier.", "counter", func(t store.Stats) uint64 { return t.Puts }},
		{"pbbf_store_entries", "Resident records, by tier.", "gauge", func(t store.Stats) uint64 { return uint64(t.Entries) }},
		{"pbbf_store_bytes_written_total", "Record bytes written, by tier.", "counter", func(t store.Stats) uint64 { return t.BytesWritten }},
		{"pbbf_store_quarantined_total", "Corrupt records quarantined, by tier.", "counter", func(t store.Stats) uint64 { return t.Quarantined }},
		{"pbbf_store_errors_total", "Store backend errors, by tier.", "counter", func(t store.Stats) uint64 { return t.Errors }},
	}
	for _, f := range families {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, tier := range tiers {
			fmt.Fprintf(b, "%s{tier=%q} %d\n", f.name, escapeLabel(tier.Kind), f.value(tier))
		}
	}
}
