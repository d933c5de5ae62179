package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pbbf/internal/experiments"
	"pbbf/internal/scenario"
	"pbbf/internal/server"
	"pbbf/internal/store"
)

// Every serving request runs one Section 5 scenario at the quick scale
// with one sweep worker, so two clients never run more than two compute
// goroutines. Requests differ only in their root seed.
const (
	serveScenario = "fig17"
	serveScale    = "quick"
	serveClients  = 2
	// workingSet is how many seeds each client writes to the disk store
	// during set-up; serve_mem and serve_disk draw their requests from it.
	workingSet = 24
	// memShards and memEntries size the memory tier of serve_mem as
	// `pbbf serve` does by default.
	memShards  = 16
	memEntries = 4096
)

// memSize is the shape of a serving node's memory tier.
type memSize struct{ shards, entries int }

var (
	defaultMem = memSize{memShards, memEntries}
	// thinMem is serve_disk's memory tier: far fewer entries than one
	// round over the working set touches, so every request misses memory
	// and is answered from disk.
	thinMem = memSize{1, 32}
)

// tier is the store tier scheduled to answer a request.
type tier int

const (
	tierMem tier = iota
	tierDisk
	tierCompute
)

func (t tier) String() string {
	return [...]string{"mem", "disk", "compute"}[t]
}

// tierSchedule draws n tiers from mix (weights for mem, disk, compute)
// with the given generator: the seeded schedule of the mixed traced run.
func tierSchedule(r *rand.Rand, mix [3]float64, n int) []tier {
	total := mix[0] + mix[1] + mix[2]
	out := make([]tier, n)
	for i := range out {
		x := r.Float64() * total
		switch {
		case x < mix[0]:
			out[i] = tierMem
		case x < mix[0]+mix[1]:
			out[i] = tierDisk
		default:
			out[i] = tierCompute
		}
	}
	return out
}

// freshSeed draws a root seed for a request (never 0, which selects the
// preset default).
func freshSeed(r *rand.Rand) uint64 { return r.Uint64()>>1 | 1 }

// tierMismatch checks one response against its scheduled tier. cached
// holds each point's "cached" flag; diskHits holds how many disk-tier
// reads of each point's key the request caused. It returns "" when the
// response was answered by the scheduled tier.
func tierMismatch(want tier, cached []bool, diskHits []int) string {
	if len(cached) == 0 {
		return "no points"
	}
	for i, c := range cached {
		switch {
		case want == tierCompute && c:
			return fmt.Sprintf("point %d cached, scheduled compute", i)
		case want != tierCompute && !c:
			return fmt.Sprintf("point %d computed, scheduled %s hit", i, want)
		case want == tierMem && diskHits[i] != 0:
			return fmt.Sprintf("point %d read from disk, scheduled mem hit", i)
		case want == tierDisk && diskHits[i] == 0:
			return fmt.Sprintf("point %d not read from disk, scheduled disk hit", i)
		}
	}
	return ""
}

// probeStore wraps one store tier from outside: it counts reads that hit
// per key (which tells a disk hit from a memory hit) and, when spans is
// set, records a span around every call, parented to the request that
// owns the key.
type probeStore struct {
	store.Store
	name  string
	spans *spanRecorder // nil: count only
	owner *sync.Map     // key → request span id (traced runs)

	mu    sync.Mutex
	hits  map[string]int
	gets  int
	found int
	puts  int
}

func newProbe(inner store.Store, name string, spans *spanRecorder, owner *sync.Map) *probeStore {
	return &probeStore{Store: inner, name: name, spans: spans, owner: owner, hits: make(map[string]int)}
}

func (p *probeStore) parent(key string) int {
	if v, ok := p.owner.Load(key); ok {
		return v.(int)
	}
	return 0
}

func (p *probeStore) Get(key string) (scenario.Result, bool, error) {
	start := time.Now()
	res, ok, err := p.Store.Get(key)
	if p.spans != nil {
		name := p.name + ".miss"
		if ok {
			name = p.name + ".get"
		}
		p.spans.add(name, p.parent(key), start, time.Now())
	}
	p.mu.Lock()
	p.gets++
	if ok {
		p.found++
		p.hits[key]++
	}
	p.mu.Unlock()
	return res, ok, err
}

func (p *probeStore) Put(key string, res scenario.Result) error {
	start := time.Now()
	err := p.Store.Put(key, res)
	if p.spans != nil {
		p.spans.add(p.name+".put", p.parent(key), start, time.Now())
	}
	p.mu.Lock()
	p.puts++
	p.mu.Unlock()
	return err
}

// probeCounts is a snapshot of a probe's call counters.
type probeCounts struct{ gets, found, puts int }

func (p *probeStore) counts() probeCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return probeCounts{p.gets, p.found, p.puts}
}

// hitCounts returns the read-hit count of each key.
func (p *probeStore) hitCounts(keys []string) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = p.hits[k]
	}
	return out
}

// serveNode is one running server over a tiered store in a directory.
type serveNode struct {
	srv    *server.Server
	mem    *probeStore // nil unless traced
	disk   *probeStore
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

// startNode opens the disk store in dir, tiers a memory store of the given
// size over it, and serves the API on a loopback port.
func startNode(dir string, memShards, memEntries int, spans *spanRecorder, owner *sync.Map) (*serveNode, error) {
	mem, err := store.NewMemory(memShards, memEntries)
	if err != nil {
		return nil, err
	}
	disk, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	n := &serveNode{disk: newProbe(disk, "store.disk", spans, owner)}
	var memTier store.Store = mem
	if spans != nil {
		n.mem = newProbe(mem, "store.mem", spans, owner)
		memTier = n.mem
	}
	n.srv, err = server.New(server.Options{
		Registry: experiments.Registry(),
		Results:  store.Tiered(memTier, n.disk),
	})
	if err != nil {
		disk.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.srv.Close()
		return nil, err
	}
	n.url = "http://" + l.Addr().String()
	n.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.done = make(chan error, 1)
	go func() { n.done <- n.srv.ServeListener(ctx, l, nil) }()
	return n, nil
}

// stop shuts the server down, waits for it, and closes its store.
func (n *serveNode) stop() error {
	n.cancel()
	err := <-n.done
	n.client.CloseIdleConnections()
	if cerr := n.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// serverStats is the part of GET /v1/stats the traced run reports.
type serverStats struct {
	Flight struct {
		Joins uint64 `json:"joins"`
	} `json:"flight_v1"`
	Limits struct {
		Shed        uint64 `json:"shed"`
		RateLimited uint64 `json:"rate_limited"`
	} `json:"limits_v1"`
}

func (n *serveNode) stats(ctx context.Context) (serverStats, error) {
	var st serverStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// response is one parsed /v1/run stream.
type response struct {
	keys    []string
	results [][]byte // each point's result JSON
	cached  []bool
	bytes   int
}

// streamLine is the union of the NDJSON line shapes of POST /v1/run.
type streamLine struct {
	Type     string `json:"type"`
	Scenario string `json:"scenario"`
	scenario.PointOutput
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
	Jobs   int    `json:"jobs"`
}

// run posts one request for the serving scenario at the given seed and
// parses the stream. A non-200 status (429 included), an error line, or a
// stream whose point count disagrees with its header is an error.
func (n *serveNode) run(ctx context.Context, seed uint64) (*response, error) {
	body := fmt.Sprintf(`{"experiment":%q,"scale":%q,"seed":%d,"workers":1}`, serveScenario, serveScale, seed)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.url+"/v1/run", bytes.NewBufferString(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return parseStream(data, seed)
}

func parseStream(data []byte, seed uint64) (*response, error) {
	scale, err := scenario.ByName(serveScale)
	if err != nil {
		return nil, err
	}
	scale.Seed = seed
	out := &response{bytes: len(data)}
	jobs, done := -1, false
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("stream line: %w", err)
		}
		switch line.Type {
		case "run":
			jobs = line.Jobs
		case "point":
			res, err := json.Marshal(line.Result)
			if err != nil {
				return nil, err
			}
			out.keys = append(out.keys, scenario.PointKey(line.Scenario, scale, line.Point))
			out.results = append(out.results, res)
			out.cached = append(out.cached, line.Cached)
		case "error":
			return nil, fmt.Errorf("error line: %s", line.Error)
		case "done":
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !done || jobs != len(out.keys) {
		return nil, fmt.Errorf("truncated stream: %d of %d points, done=%v", len(out.keys), jobs, done)
	}
	return out, nil
}

// pointKeys enumerates the point keys a request for seed will answer.
func pointKeys(seed uint64) ([]string, error) {
	sc, err := experiments.Registry().ByID(serveScenario)
	if err != nil {
		return nil, err
	}
	scale, err := scenario.ByName(serveScale)
	if err != nil {
		return nil, err
	}
	scale.Seed = seed
	pts, err := sc.Points(scale)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(pts))
	for i, pt := range pts {
		keys[i] = scenario.PointKey(sc.ID, scale, pt)
	}
	return keys, nil
}

// servedRequest is one measured request kept for the post-run checks.
type servedRequest struct {
	want     tier
	seed     uint64
	resp     *response
	diskHits []int
	err      error
}

// issue sends one request for seed, whose point keys are keys, and
// returns it with the disk-tier reads it caused. A stream that answers
// other keys than the enumerated ones is an error.
func issue(ctx context.Context, n *serveNode, want tier, seed uint64, keys []string, lat *latencies) servedRequest {
	before := n.disk.hitCounts(keys)
	start := time.Now()
	resp, err := n.run(ctx, seed)
	if lat != nil {
		lat.add(time.Since(start))
	}
	r := servedRequest{want: want, seed: seed, resp: resp, err: err}
	if err != nil {
		return r
	}
	if !slices.Equal(resp.keys, keys) {
		r.err = fmt.Errorf("stream answered other points than the %d enumerated", len(keys))
		return r
	}
	r.diskHits = n.disk.hitCounts(keys)
	for i := range r.diskHits {
		r.diskHits[i] -= before[i]
	}
	return r
}

// verifyServed counts one request as attempted and, if it failed, as
// failed: a transport or stream error (429 included), an answer from
// another tier than scheduled, or a point result that differs from want,
// the reference encoding of its seed.
func verifyServed(t *tally, r servedRequest, want []byte) {
	t.attempt(1)
	if r.err != nil {
		t.fail(1, "seed %d (%s): %v", r.seed, r.want, r.err)
		return
	}
	if msg := tierMismatch(r.want, r.resp.cached, r.diskHits); msg != "" {
		t.fail(1, "seed %d: tier mismatch: %s", r.seed, msg)
		return
	}
	if got := bytes.Join(r.resp.results, []byte{'\n'}); !bytes.Equal(got, want) {
		t.fail(1, "seed %d: served results differ from a direct compute", r.seed)
	}
}

// checkServed verifies recorded requests against a direct computation of
// every seed they asked for.
func checkServed(ctx context.Context, t *tally, reqs []servedRequest) error {
	want := make(map[uint64][]byte) // seed → reference results, encoded
	for _, r := range reqs {
		want[r.seed] = nil
	}
	if err := referenceResults(ctx, want); err != nil {
		return err
	}
	for _, r := range reqs {
		verifyServed(t, r, want[r.seed])
	}
	return nil
}

// referenceResults fills want[seed] with the newline-joined result JSON of
// every point of the serving scenario at that seed, computed directly
// through the scenario (no engine, no server, no store) on two goroutines.
func referenceResults(ctx context.Context, want map[uint64][]byte) error {
	sc, err := experiments.Registry().ByID(serveScenario)
	if err != nil {
		return err
	}
	seeds := make(chan uint64)
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				data, err := directCompute(ctx, sc, seed)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				want[seed] = data
				mu.Unlock()
			}
		}()
	}
	todo := make([]uint64, 0, len(want))
	for seed := range want {
		todo = append(todo, seed)
	}
	for _, seed := range todo {
		seeds <- seed
	}
	close(seeds)
	wg.Wait()
	return firstErr
}

func directCompute(ctx context.Context, sc scenario.Scenario, seed uint64) ([]byte, error) {
	scale, err := scenario.ByName(serveScale)
	if err != nil {
		return nil, err
	}
	scale.Seed = seed
	pts, err := sc.Points(scale)
	if err != nil {
		return nil, err
	}
	parts := make([][]byte, len(pts))
	for i, pt := range pts {
		res, err := sc.ComputePoint(ctx, scale, pt)
		if err != nil {
			return nil, err
		}
		if parts[i], err = json.Marshal(res); err != nil {
			return nil, err
		}
	}
	return bytes.Join(parts, []byte{'\n'}), nil
}

// serveSite is a serving node after set-up, with the seeds each client
// wrote to its disk store.
type serveSite struct {
	dir     string
	node    *serveNode
	written [serveClients][]uint64 // touched again after the restart for serve_mem
	cold    [serveClients][]uint64 // never touched after the restart
	keys    map[uint64][]string    // point keys of every written seed
}

func (s *serveSite) close() {
	s.node.stop() //nolint:errcheck // teardown; the run's checks already happened
	os.RemoveAll(s.dir)
}

// setUpSite is the serving set-up every serve workload pays: a node writes
// each client's working set (plus cold seeds) to a fresh disk store and is
// restarted over the same directory, so the restarted node's first read
// of any of those seeds is a disk hit. For a memory-hit focus the working
// set is then read once, which promotes it into memory. The restarted
// node's memory tier has the given size.
func setUpSite(ctx context.Context, cfg config, focus tier, mem memSize, cold int, spans *spanRecorder, owner *sync.Map) (*serveSite, error) {
	dir, err := os.MkdirTemp(cfg.scratch, "store-")
	if err != nil {
		return nil, err
	}
	site := &serveSite{dir: dir, keys: make(map[uint64][]string)}
	// The working set is root seeds 1..serveClients*workingSet, split
	// between the clients by the run's seed: every run writes the same
	// records, so set-up does the same work whatever the seed.
	order := cfg.rng(100).Perm(serveClients * workingSet)
	r := cfg.rng(150)
	for c := 0; c < serveClients; c++ {
		for j := 0; j < workingSet; j++ {
			site.written[c] = append(site.written[c], uint64(order[c*workingSet+j]+1))
		}
		for j := 0; j < cold; j++ {
			site.cold[c] = append(site.cold[c], freshSeed(r))
		}
		for _, seed := range append(site.written[c], site.cold[c]...) {
			if site.keys[seed], err = pointKeys(seed); err != nil {
				return nil, err
			}
		}
	}
	first, err := startNode(dir, memShards, memEntries, nil, nil)
	if err != nil {
		return nil, err
	}
	// Set-up requests run one at a time: with two computing at once, the
	// CPU time of set-up moved by a third between batches of runs.
	var all []uint64
	for c := range site.written {
		all = append(append(all, site.written[c]...), site.cold[c]...)
	}
	if err := runAll(ctx, first, all); err != nil {
		first.stop() //nolint:errcheck
		return nil, err
	}
	if err := first.stop(); err != nil {
		return nil, err
	}
	if site.node, err = startNode(dir, mem.shards, mem.entries, spans, owner); err != nil {
		return nil, err
	}
	if focus == tierMem {
		if err := runAll(ctx, site.node, append(append([]uint64(nil), site.written[0]...), site.written[1]...)); err != nil {
			site.close()
			return nil, err
		}
	}
	return site, nil
}

// runAll requests each seed in turn.
func runAll(ctx context.Context, n *serveNode, seeds []uint64) error {
	for _, seed := range seeds {
		if _, err := n.run(ctx, seed); err != nil {
			return err
		}
	}
	return nil
}

// eachClient runs fn once per client, concurrently, and returns the first
// error.
func (s *serveSite) eachClient(fn func(c int) error) error {
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// requestPlan is client c's seeded request sequence for a single-tier
// serving workload: uniform draws from its working set for memory hits, a
// shuffled round over it for disk hits.
func requestPlan(cfg config, c int, focus tier, written []uint64) func() (tier, uint64) {
	r := cfg.rng(uint64(200 + c))
	if focus == tierMem {
		return func() (tier, uint64) { return tierMem, written[r.IntN(len(written))] }
	}
	order := r.Perm(len(written))
	i := 0
	return func() (tier, uint64) {
		seed := written[order[i%len(order)]]
		i++
		return tierDisk, seed
	}
}

// sliceEvery cuts the measured phase into slices of the given period,
// counting the operations done completes in each, until the returned stop
// function is called; stop records the final slice, unless it is shorter
// than half a period, and waits.
func sliceEvery(period time.Duration, done *atomic.Int64, into *[]slice) (stop func()) {
	quit := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(period)
		defer t.Stop()
		w0, c0, n0 := time.Now(), cpuTime(), done.Load()
		cut := func() {
			w, c, n := time.Now(), cpuTime(), done.Load()
			if w.Sub(w0) >= period/2 {
				*into = append(*into, slice{ops: int(n - n0), wall: w.Sub(w0), cpu: c - c0})
			}
			w0, c0, n0 = w, c, n
		}
		for {
			select {
			case <-quit:
				cut()
				return
			case <-t.C:
				cut()
			}
		}
	}()
	return func() {
		close(quit)
		<-finished
	}
}

// runServe measures one single-tier serving workload: two closed-loop
// clients, each sending its next request only after reading the previous
// response in full, post requests that the scheduled tier must answer.
// Each request is one operation; its client-side wall time is the latency.
// Requests are verified as they complete against references computed
// before the measured phase, so nothing accumulates while it runs.
func runServe(ctx context.Context, cfg config, focus tier) (*outcome, error) {
	o := &outcome{}
	site, setups, err := repeatSetup(func() (*serveSite, error) {
		mem := defaultMem
		if focus == tierDisk {
			mem = thinMem
		}
		return setUpSite(ctx, cfg, focus, mem, 0, nil, nil)
	}, (*serveSite).close)
	if err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	defer site.close()
	o.setups = setups

	want := make(map[uint64][]byte)
	for _, seeds := range site.written {
		for _, seed := range seeds {
			want[seed] = nil
		}
	}
	if err := referenceResults(ctx, want); err != nil {
		return nil, err
	}
	var (
		lat  latencies
		done atomic.Int64
	)
	o.win = openWindow()
	stopSlicing := sliceEvery(time.Second, &done, &o.slices)
	site.eachClient(func(c int) error { //nolint:errcheck // per-request errors are recorded
		next := requestPlan(cfg, c, focus, site.written[c])
		for o.win.elapsed() < cfg.dur {
			tier, seed := next()
			verifyServed(&o.tally, issue(ctx, site.node, tier, seed, site.keys[seed], &lat), want[seed])
			done.Add(1)
		}
		return nil
	})
	stopSlicing()
	o.win.close()
	o.lat = lat.sorted()
	o.diag = map[string]any{"tier": focus.String()}
	return o, nil
}
