// Package server exposes the scenario engine over HTTP: scenario metadata
// discovery, streamed scenario runs, Prometheus-text metrics, and
// operational statistics. Every point computed through POST /v1/run flows
// through a store.Store keyed by canonical scenario.PointKey — by default
// a sharded in-memory LRU, optionally tiered over a durable on-disk record
// store so a restarted server serves byte-identical results with zero
// simulation work — with singleflight de-duplication of concurrent
// identical requests. Overload is shed, not queued without bound: each
// client has a token bucket and the run path has a bounded admission
// queue; both answer 429 with Retry-After. Run results stream back as
// NDJSON in deterministic point-enumeration order, flushed whenever the
// run is about to wait on a simulation, so a paper-scale sweep is
// observable while it runs and a run answered from the store goes out in
// one or two writes. See docs/SERVING.md.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pbbf/internal/dist"
	"pbbf/internal/protocol"
	"pbbf/internal/scenario"
	"pbbf/internal/stats"
	"pbbf/internal/store"
)

// DefaultCacheShards and DefaultCacheCapacity size the memory tier when
// CacheOptions leaves them zero: enough shards that the per-shard locks
// stay uncontended at typical core counts, enough entries for several full
// quick-scale registry runs.
const (
	DefaultCacheShards   = 16
	DefaultCacheCapacity = 4096
)

// CacheOptions sizes the in-memory result tier.
type CacheOptions struct {
	// Shards is the independently locked shard count; 0 means
	// DefaultCacheShards.
	Shards int
	// Entries is the total LRU entry bound; 0 means DefaultCacheCapacity.
	Entries int
}

// StoreOptions configures the durable result tier.
type StoreOptions struct {
	// Dir is the on-disk result store directory (see internal/store).
	// Empty disables the disk tier: results live in memory only and die
	// with the process.
	Dir string
}

// DefaultMaxConcurrentRuns returns the default admission bound of the run
// path: enough concurrent runs to saturate the cores several times over
// (runs spend time streaming, not only computing), few enough that an
// overload burst degrades into fast 429s instead of a goroutine pile-up.
func DefaultMaxConcurrentRuns() int { return 4 * runtime.GOMAXPROCS(0) }

// DefaultRunQueueDepth is how many runs may wait for an admission slot
// before further arrivals are shed with 429.
const DefaultRunQueueDepth = 64

// DefaultRetryAfter is the advisory Retry-After carried by backpressure
// 429s (rate-limit 429s compute their own from the bucket's refill time).
const DefaultRetryAfter = 1 * time.Second

// LimitOptions bounds what one client — and the server as a whole — may
// ask of the run path. The zero value enables backpressure at the
// defaults and leaves per-client rate limiting off.
type LimitOptions struct {
	// RatePerSec is each client's sustained POST /v1/run budget (token
	// bucket refill rate, keyed by client IP). 0 disables rate limiting;
	// negative is an error.
	RatePerSec float64
	// Burst is the bucket depth — how many requests a client may issue
	// back-to-back before the rate applies. 0 means max(1, RatePerSec).
	Burst int
	// MaxConcurrentRuns bounds runs executing at once. 0 means
	// DefaultMaxConcurrentRuns; negative disables the admission gate.
	MaxConcurrentRuns int
	// RunQueueDepth bounds runs waiting for an admission slot; arrivals
	// beyond it are shed immediately with 429. 0 means
	// DefaultRunQueueDepth.
	RunQueueDepth int
	// RetryAfter is the advisory delay on backpressure 429s. 0 means
	// DefaultRetryAfter.
	RetryAfter time.Duration
}

// Options is the validated server configuration: the registry plus one
// option struct per concern. Setting options that conflict is an error,
// never a silent preference.
type Options struct {
	// Registry holds the scenarios the server can run. Required.
	Registry *scenario.Registry
	// Results overrides the assembled result store entirely (tests,
	// future shared/replicated backends). When set, Mem and Disk must be
	// zero. When nil, the store is built from Mem and Disk: a sharded LRU,
	// tiered over a disk store when Disk.Dir is set.
	Results store.Store
	// Mem sizes the in-memory result tier.
	Mem CacheOptions
	// Disk configures the durable result tier.
	Disk StoreOptions
	// Limits bounds the run path (per-client rate, admission queue).
	Limits LimitOptions
	// MaxWorkers caps the per-request sweep pool; <= 0 means GOMAXPROCS.
	MaxWorkers int
	// Coordinator, when non-nil, backs the distributed-sweep work
	// endpoints (/v1/work/*, /v1/workers) — the `pbbf sweep -distribute`
	// mode. When nil (plain `pbbf serve`), those endpoints answer 503.
	Coordinator *dist.Coordinator
	// AccessLog, when non-nil, receives one structured JSON line per
	// request (method, path, status, bytes, duration, remote address) —
	// the `-verbose` flag.
	AccessLog io.Writer
	// EnablePprof registers the net/http/pprof debug handlers under
	// /debug/pprof/. The handlers are unauthenticated and expose process
	// internals (goroutine dumps, heap contents, CPU profiles); enable
	// them only on loopback or otherwise-trusted listeners. Off by
	// default.
	EnablePprof bool
}

// normalized rejects invalid or conflicting options and fills defaults.
func (o Options) normalized() (Options, error) {
	if o.Registry == nil {
		return o, fmt.Errorf("server: nil registry")
	}
	if o.Results != nil && (o.Mem != (CacheOptions{}) || o.Disk != (StoreOptions{})) {
		return o, fmt.Errorf("server: Results store conflicts with Mem/Disk options")
	}
	if o.Mem.Shards == 0 {
		o.Mem.Shards = DefaultCacheShards
	}
	if o.Mem.Entries == 0 {
		o.Mem.Entries = DefaultCacheCapacity
	}
	if o.Mem.Shards < 0 || o.Mem.Entries < 0 {
		return o, fmt.Errorf("server: cache sizing %d shards / %d entries must be positive", o.Mem.Shards, o.Mem.Entries)
	}
	if o.Limits.RatePerSec < 0 {
		return o, fmt.Errorf("server: rate limit %v must be >= 0", o.Limits.RatePerSec)
	}
	if o.Limits.Burst < 0 {
		return o, fmt.Errorf("server: rate burst %d must be >= 0", o.Limits.Burst)
	}
	if o.Limits.Burst == 0 {
		o.Limits.Burst = int(o.Limits.RatePerSec)
		if o.Limits.Burst < 1 {
			o.Limits.Burst = 1
		}
	}
	if o.Limits.MaxConcurrentRuns == 0 {
		o.Limits.MaxConcurrentRuns = DefaultMaxConcurrentRuns()
	}
	if o.Limits.RunQueueDepth == 0 {
		o.Limits.RunQueueDepth = DefaultRunQueueDepth
	}
	if o.Limits.RunQueueDepth < 0 {
		return o, fmt.Errorf("server: run queue depth %d must be >= 0", o.Limits.RunQueueDepth)
	}
	if o.Limits.RetryAfter == 0 {
		o.Limits.RetryAfter = DefaultRetryAfter
	}
	if o.Limits.RetryAfter < 0 {
		return o, fmt.Errorf("server: retry-after %v must be positive", o.Limits.RetryAfter)
	}
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// buildStore assembles the result store a normalized Options describes.
// mem is the composition's memory tier, which backs the legacy "cache"
// key of /v1/stats; it is nil for an injected Results store.
func (o Options) buildStore() (results store.Store, mem *store.Memory, err error) {
	if o.Results != nil {
		return o.Results, nil, nil
	}
	if mem, err = store.NewMemory(o.Mem.Shards, o.Mem.Entries); err != nil {
		return nil, nil, err
	}
	if o.Disk.Dir == "" {
		return mem, mem, nil
	}
	disk, err := store.Open(o.Disk.Dir)
	if err != nil {
		return nil, nil, err
	}
	return store.Tiered(mem, disk), mem, nil
}

// Server is the HTTP front end. It implements http.Handler; use
// ListenAndServe for a managed listener with graceful shutdown.
type Server struct {
	reg        *scenario.Registry
	results    store.Store
	flight     *store.Flight
	mem        *store.Memory // nil when no memory tier is visible
	maxWorkers int
	coord      *dist.Coordinator
	mux        *http.ServeMux
	start      time.Time

	limiter    *rateLimiter // nil when rate limiting is off
	gate       *runGate     // nil when the admission gate is off
	retryAfter time.Duration

	metrics *metricSet

	accessMu  sync.Mutex
	accessLog io.Writer

	runs         atomic.Uint64
	pointsServed atomic.Uint64
}

// New validates the configuration and assembles the server and its routes.
func New(o Options) (*Server, error) {
	o, err := o.normalized()
	if err != nil {
		return nil, err
	}
	results, mem, err := o.buildStore()
	if err != nil {
		return nil, err
	}
	s := &Server{
		reg:        o.Registry,
		results:    results,
		flight:     store.NewFlight(results),
		mem:        mem,
		maxWorkers: o.MaxWorkers,
		coord:      o.Coordinator,
		retryAfter: o.Limits.RetryAfter,
		accessLog:  o.AccessLog,
		mux:        http.NewServeMux(),
		start:      time.Now(),
	}
	if o.Limits.RatePerSec > 0 {
		s.limiter = newRateLimiter(o.Limits.RatePerSec, o.Limits.Burst)
	}
	if o.Limits.MaxConcurrentRuns > 0 {
		s.gate = newRunGate(o.Limits.MaxConcurrentRuns, o.Limits.RunQueueDepth)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("GET /v1/protocols", s.handleProtocols)
	s.mux.HandleFunc("GET /v1/scenarios/{id}", s.handleScenario)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/workers", s.handleWorkerRegister)
	s.mux.HandleFunc("GET /v1/workers", s.handleWorkersList)
	s.mux.HandleFunc("POST /v1/workers/{id}/heartbeat", s.handleWorkerHeartbeat)
	s.mux.HandleFunc("POST /v1/work/lease", s.handleWorkLease)
	s.mux.HandleFunc("POST /v1/work/result", s.handleWorkResult)
	if o.EnablePprof {
		// Registered on the private mux, not http.DefaultServeMux, so the
		// debug surface exists only when asked for. No method pattern:
		// /debug/pprof/symbol accepts POST too.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.metrics = newMetricSet()
	// Unregistered routes fall through to the mux's own handling, which
	// also answers wrong-method requests with 405 + Allow.
	return s, nil
}

// Close releases the result store (the disk tier's contract).
func (s *Server) Close() error { return s.results.Close() }

// ServeHTTP dispatches to the API routes, recording per-route metrics for
// every request and logging each one when an access log is configured.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(rec, r)
	elapsed := time.Since(start)
	// r.Pattern is the mux pattern that matched, set by ServeHTTP —
	// "POST /v1/run", not the raw path — so metric labels stay bounded.
	route := r.Pattern
	if route == "" {
		route = "unmatched"
	}
	s.metrics.observe(route, r.Method, rec.status, elapsed)
	if s.accessLog == nil {
		return
	}
	line, err := json.Marshal(accessLine{
		Method:     r.Method,
		Path:       r.URL.Path,
		Status:     rec.status,
		Bytes:      rec.bytes,
		DurationMS: float64(elapsed.Microseconds()) / 1000,
		Remote:     r.RemoteAddr,
	})
	if err != nil {
		return
	}
	s.accessMu.Lock()
	s.accessLog.Write(append(line, '\n')) //nolint:errcheck // logging is best-effort
	s.accessMu.Unlock()
}

// accessLine is one structured access-log record.
type accessLine struct {
	Method     string  `json:"method"`
	Path       string  `json:"path"`
	Status     int     `json:"status"`
	Bytes      int64   `json:"bytes"`
	DurationMS float64 `json:"duration_ms"`
	Remote     string  `json:"remote"`
}

// statusRecorder captures the response status and size for the access
// log. Unwrap exposes the underlying writer so http.ResponseController
// (the NDJSON stream's flusher) keeps working through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// ListenAndServe serves the API on addr until ctx is cancelled, then shuts
// down gracefully (in-flight requests get ShutdownTimeout to finish). The
// bound address is logged to logw before serving, so callers binding
// ":0" learn the chosen port.
func (s *Server) ListenAndServe(ctx context.Context, addr string, logw io.Writer) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.serve(ctx, l, logw)
}

// ServeListener is ListenAndServe on an existing listener, for callers
// that must know the bound address before serving (`pbbf sweep
// -distribute 127.0.0.1:0` announces the coordinator address itself).
func (s *Server) ServeListener(ctx context.Context, l net.Listener, logw io.Writer) error {
	return s.serve(ctx, l, logw)
}

// ShutdownTimeout is how long graceful shutdown waits for in-flight
// requests (streamed runs included) before giving up.
const ShutdownTimeout = 10 * time.Second

func (s *Server) serve(ctx context.Context, l net.Listener, logw io.Writer) error {
	hs := &http.Server{Handler: s}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), ShutdownTimeout)
		defer cancel()
		done <- hs.Shutdown(sctx)
	}()
	if logw != nil {
		fmt.Fprintf(logw, "pbbf serve: listening on http://%s\n", l.Addr())
	}
	err := hs.Serve(l)
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if ctx.Err() == nil {
		return nil
	}
	if err := <-done; err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	if logw != nil {
		fmt.Fprintln(logw, "pbbf serve: shut down cleanly")
	}
	return nil
}

// scenariosResponse is the GET /v1/scenarios payload. Each scenario entry
// carries the protocols it exercises; Protocols lists every name the run
// endpoint accepts.
type scenariosResponse struct {
	Scenarios []scenario.Scenario `json:"scenarios"`
	Scales    []string            `json:"scales"`
	Protocols []string            `json:"protocols"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, scenariosResponse{
		Scenarios: s.reg.All(),
		Scales:    scenario.ScaleNames(),
		Protocols: protocol.Names(),
	})
}

// protocolsResponse is the GET /v1/protocols payload: every registered
// broadcast protocol with its knob documentation.
type protocolsResponse struct {
	Protocols []protocol.Info `json:"protocols"`
}

func (s *Server) handleProtocols(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, protocolsResponse{Protocols: protocol.Infos()})
}

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	sc, err := s.reg.ByID(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, sc)
}

// StatsSchemaVersion is the statsResponse schema generation; it bumps
// when a versioned key changes shape, never when one is added.
const StatsSchemaVersion = 2

// statsResponse is the GET /v1/stats payload. New stat families land
// under versioned keys (store_v1, flight_v1, limits_v1) so their shapes
// can evolve by adding a _v2 sibling instead of mutating in place; the
// unversioned cache key is the pre-store memory-tier snapshot, kept for
// existing consumers.
type statsResponse struct {
	SchemaVersion int     `json:"schema_version"`
	UptimeS       float64 `json:"uptime_s"`
	Runs          uint64  `json:"runs"`
	PointsServed  uint64  `json:"points_served"`
	// Cache is the memory tier's counters — the original stats shape.
	// Zero when the server runs on an injected Results store with no
	// visible memory tier.
	Cache    cacheStats  `json:"cache"`
	StoreV1  store.Stats `json:"store_v1"`
	FlightV1 flightStats `json:"flight_v1"`
	LimitsV1 limitStats  `json:"limits_v1"`
}

// flightStats snapshots the singleflight layer.
type flightStats struct {
	// Computes counts store misses that led a flight and called compute. A
	// repeated point counts here although it reuses its leader's
	// simulation.
	Computes uint64 `json:"computes"`
	// Joins counts requests that shared another caller's computation.
	Joins uint64 `json:"joins"`
	// Active is the number of point computations running right now.
	Active int64 `json:"active"`
}

func (s *Server) flightStats() flightStats {
	return flightStats{
		Computes: s.flight.Computes(),
		Joins:    s.flight.Joins(),
		Active:   s.flight.Active(),
	}
}

// cacheStats is the legacy "cache" object of /v1/stats and the run
// stream's done line: the memory tier's counters in their pre-store shape.
type cacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// InflightJoins is always 0: the memory tier holds only completed
	// results. Joins on in-flight computes are counted in flight_v1.joins.
	InflightJoins uint64 `json:"inflight_joins"`
	Evictions     uint64 `json:"evictions"`
	Entries       int    `json:"entries"`
	Capacity      int    `json:"capacity"`
	Shards        int    `json:"shards"`
}

func (s *Server) cacheStats() cacheStats {
	if s.mem == nil {
		return cacheStats{}
	}
	ms := s.mem.Stats()
	return cacheStats{
		Hits:      ms.Hits,
		Misses:    ms.Misses,
		Evictions: ms.Evictions,
		Entries:   ms.Entries,
		Capacity:  ms.Capacity,
		Shards:    ms.Shards,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		SchemaVersion: StatsSchemaVersion,
		UptimeS:       time.Since(s.start).Seconds(),
		Runs:          s.runs.Load(),
		PointsServed:  s.pointsServed.Load(),
		Cache:         s.cacheStats(),
		StoreV1:       s.results.Stats(),
		FlightV1:      s.flightStats(),
		LimitsV1:      s.limitStats(),
	})
}

// RunRequest is the POST /v1/run body: the run's identity (experiment
// "all" or one scenario ID, plus the scenario.Knobs that select its
// scale; seed 0 means the preset's) and the pool size.
type RunRequest struct {
	scenario.Identity
	// Workers sizes the sweep pool, clamped to the server's maximum;
	// <= 0 selects the maximum.
	Workers int `json:"workers"`
}

// Stream line types. Every NDJSON line carries "type" so clients can
// dispatch without peeking at other fields. Point lines are written by
// appendPointLine.
type runHeader struct {
	Type string `json:"type"` // "run"
	// Identity is the canonical identity the run computed: the resolved
	// seed and protocol, not the request's spelling of them.
	scenario.Identity
	Workers   int `json:"workers"`
	Scenarios int `json:"scenarios"`
	Jobs      int `json:"jobs"`
}

type tableLine struct {
	Type     string       `json:"type"` // "table"
	Scenario string       `json:"scenario"`
	Table    *stats.Table `json:"table"`
}

type doneLine struct {
	Type         string      `json:"type"` // "done"
	Jobs         int         `json:"jobs"`
	CachedPoints int         `json:"cached_points"`
	WallMS       float64     `json:"wall_ms"`
	Cache        cacheStats  `json:"cache"`
	Store        store.Stats `json:"store_v1"`
}

type errorLine struct {
	Type  string `json:"type"` // "error"
	Error string `json:"error"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admitRun(w, r)
	if !ok {
		return
	}
	defer release()
	var req RunRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	if req.Experiment == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing experiment (scenario id or \"all\")"))
		return
	}
	scale, knobs, err := req.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	workers := req.Workers
	if workers <= 0 || workers > s.maxWorkers {
		workers = s.maxWorkers
	}
	selected, err := s.reg.Select(req.Experiment)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	// Plan the run up front so the stream header states the job count
	// before any point lands. Planning is cheap (no simulation); a failure
	// here is reported as a regular status code, not mid-stream.
	plan, err := scenario.NewPlan(selected, scale)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}

	s.runs.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	out := &runStream{w: w, enc: json.NewEncoder(w), buf: make([]byte, 0, 1024), rc: http.NewResponseController(w)}
	out.write(runHeader{
		Type:     "run",
		Identity: scenario.Identity{Experiment: req.Experiment, Knobs: knobs},
		Workers:  workers, Scenarios: len(selected), Jobs: plan.Jobs(),
	})

	// Stream results in deterministic enumeration order: OnPoint delivers
	// completion order, the reorder buffer holds early finishers until
	// their predecessors land. OnPoint calls are serialized by the engine,
	// so the buffer needs no locking. A point line that cannot be encoded
	// (a non-finite result) ends the stream: the run is cancelled and its
	// error line replaces every later line.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	var lineErr error
	cachedPoints := 0
	next := 0
	pending := make([]scenario.PointEvent, plan.Jobs())
	emit := func(ev scenario.PointEvent) {
		pending[ev.Index] = ev
		if ev.Cached {
			cachedPoints++
		}
		s.pointsServed.Add(1)
		for ; lineErr == nil && next < len(pending); next++ {
			ev := &pending[next]
			switch {
			case ev.Point != nil:
				if err := out.writePoint(ev.ScenarioID, ev.Point, ev.Cached); err != nil {
					lineErr = fmt.Errorf("%s: point %s: %w", ev.ScenarioID, ev.Point.Label(), err)
					cancel()
				}
			case ev.Table != nil:
				out.write(tableLine{Type: "table", Scenario: ev.ScenarioID, Table: ev.Table})
			default:
				return
			}
			*ev = scenario.PointEvent{} // written; let the point go
		}
	}

	keyer := scenario.NewKeyer(scale)
	start := time.Now()
	err = plan.Run(ctx, scenario.RunOptions{
		Workers: workers,
		Intercept: func(sc scenario.Scenario, pt scenario.Point, compute func() (scenario.Result, error)) (scenario.Result, bool, error) {
			waited := false
			res, cached, err := s.flight.Do(keyer.Key(sc.ID, pt), compute, func() {
				waited = true
				out.wait()
			})
			if waited {
				out.resume()
			}
			return res, cached, err
		},
		OnPoint: emit,
	})
	if lineErr != nil {
		err = lineErr
	}
	if err != nil {
		// The stream already committed status 200; the error travels as
		// the final NDJSON line instead.
		out.write(errorLine{Type: "error", Error: err.Error()})
		return
	}
	out.write(doneLine{
		Type: "done", Jobs: plan.Jobs(), CachedPoints: cachedPoints,
		WallMS: float64(time.Since(start).Microseconds()) / 1000,
		Cache:  s.cacheStats(),
		Store:  s.results.Stats(),
	})
}

// runStream writes one /v1/run NDJSON stream. Lines are not flushed one
// by one; the stream is flushed
//
//  1. right before one of the run's points blocks on a computation, as
//     the leader running it or as a joiner waiting on another request's;
//  2. after each line written while any of the run's points is blocked;
//  3. at the end, by net/http completing the response as the handler
//     returns, in the same write as the chunked-encoding terminator.
//
// So a written line never waits behind a simulation, and a run answered
// entirely from the store goes out in as few writes as the response
// buffers allow. Intercept runs on the engine's worker goroutines, so
// line writes and flushes share mu.
type runStream struct {
	mu      sync.Mutex
	w       io.Writer
	enc     *json.Encoder // the run, table, done and error lines
	buf     []byte        // point lines, encoded by hand
	rc      *http.ResponseController
	waiting int  // the run's points blocked on a computation now
	dirty   bool // lines written since the last flush
}

// write encodes one line with encoding/json.
func (st *runStream) write(v any) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.enc.Encode(v) //nolint:errcheck // a dead client surfaces via ctx
	st.wroteLocked()
}

// writePoint writes one point line, the bytes encoding/json writes for
// pointLine, and fails without writing when the point or its result has
// a non-finite number.
func (st *runStream) writePoint(id string, po *scenario.PointOutput, cached bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	b, err := appendPointLine(st.buf[:0], id, po, cached)
	if err != nil {
		return err
	}
	st.buf = b
	st.w.Write(b) //nolint:errcheck // a dead client surfaces via ctx
	st.wroteLocked()
	return nil
}

// appendPointLine appends the NDJSON point line of po, newline included.
func appendPointLine(b []byte, id string, po *scenario.PointOutput, cached bool) ([]byte, error) {
	b = scenario.AppendJSONString(append(b, `{"type":"point","scenario":`...), id)
	b, err := po.Point.AppendJSONFields(append(b, ','))
	if err != nil {
		return nil, err
	}
	if b, err = po.Result.AppendJSON(append(b, `,"result":`...)); err != nil {
		return nil, err
	}
	return append(strconv.AppendBool(append(b, `,"cached":`...), cached), "}\n"...), nil
}

// wroteLocked marks the stream dirty, flushing it at once while a point
// is blocked.
func (st *runStream) wroteLocked() {
	st.dirty = true
	if st.waiting > 0 {
		st.flushLocked()
	}
}

// wait records that a point is about to block and flushes what the
// stream holds, so the client reads every finished line meanwhile.
func (st *runStream) wait() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.waiting++
	st.flushLocked()
}

// resume records that a point blocked by wait has its result.
func (st *runStream) resume() {
	st.mu.Lock()
	st.waiting--
	st.mu.Unlock()
}

func (st *runStream) flushLocked() {
	if st.dirty {
		st.rc.Flush() //nolint:errcheck // a dead client surfaces via ctx
		st.dirty = false
	}
}

// healthResponse is the GET /healthz payload — the liveness/readiness
// probe for load balancers and distributed-sweep workers.
type healthResponse struct {
	Status    string  `json:"status"`
	UptimeS   float64 `json:"uptime_s"`
	Scenarios int     `json:"scenarios"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:    "ok",
		UptimeS:   time.Since(s.start).Seconds(),
		Scenarios: s.reg.Len(),
	})
}

// coordinator gates the distributed-sweep endpoints: plain `pbbf serve`
// has no coordinator and answers 503, telling workers they dialed a
// server that is not running a distributed sweep.
func (s *Server) coordinator(w http.ResponseWriter) (*dist.Coordinator, bool) {
	if s.coord == nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("no distributed sweep active on this server"))
		return nil, false
	}
	return s.coord, true
}

// decodeJSON parses a request body strictly, answering 400 on failure.
func decodeJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	return true
}

// writeDistError maps the coordinator's sentinel errors to status codes:
// an unknown worker must re-register (404), a quarantined worker must
// exit (403).
func writeDistError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, dist.ErrUnknownWorker):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, dist.ErrQuarantined):
		writeError(w, http.StatusForbidden, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	coord, ok := s.coordinator(w)
	if !ok {
		return
	}
	var req dist.RegisterRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, coord.Register(req.Name))
}

func (s *Server) handleWorkersList(w http.ResponseWriter, _ *http.Request) {
	coord, ok := s.coordinator(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, coord.Snapshot())
}

func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	coord, ok := s.coordinator(w)
	if !ok {
		return
	}
	if err := coord.Heartbeat(r.PathValue("id")); err != nil {
		writeDistError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleWorkLease(w http.ResponseWriter, r *http.Request) {
	coord, ok := s.coordinator(w)
	if !ok {
		return
	}
	var req dist.LeaseRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := coord.Lease(req)
	if err != nil {
		writeDistError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkResult(w http.ResponseWriter, r *http.Request) {
	coord, ok := s.coordinator(w)
	if !ok {
		return
	}
	var req dist.ResultRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := coord.Result(req)
	if err != nil {
		writeDistError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// errorResponse is the JSON error body of every non-200 response.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response already committed
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
