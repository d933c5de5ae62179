package netsim

import (
	"slices"
	"time"

	"pbbf/internal/codedist"
	"pbbf/internal/mac"
	"pbbf/internal/phy"
	"pbbf/internal/rng"
	"pbbf/internal/sim"
	"pbbf/internal/stats"
	"pbbf/internal/topo"
)

// RunPool is the simulator. It owns every reusable piece of one run: the
// event kernel, the channel, a node fleet with its energy bank, per-node
// trackers, the code-distribution source, the link-loss table, the churn
// and BFS scratch buffers, and all the run-level callbacks — bound once
// and rescheduled forever. Points that lease the same pool in turn (the
// experiments free list hands it to one point at a time) perform their
// steady-state simulation work with (near) zero allocation; the
// package-level Run uses a fresh pool.
//
// Determinism: a run's result depends only on its Config, never on what
// the pool ran before. A RunPool is not safe for concurrent use; lease it
// to one point at a time.
type RunPool struct {
	kernel   *sim.Kernel
	channel  *phy.Channel
	fleet    *mac.Fleet
	trackers []codedist.Tracker
	deliver  []mac.DeliveryFunc
	kills    []func()
	source   codedist.Source
	linkLoss phy.LinkLoss
	bfs      topo.Scratch

	// Random sources for the run and its conditionally-drawn features, all
	// reseeded in place (the per-node sources live in the fleet).
	base      rng.Source
	lossRNG   rng.Source
	fillRNG   rng.Source
	linkRNG   rng.Source
	heteroRNG rng.Source
	energyRNG rng.Source
	churnRNG  rng.Source

	permBuf []int
	victims []topo.NodeID
	deaths  []time.Duration

	// cfg is the in-flight run's configuration; the pre-bound generate and
	// beacon callbacks read it through the pool.
	cfg        Config
	generateFn func()
	endWindow  func()
	tick       func()
}

// NewRunPool returns a pool ready for its first Run.
func NewRunPool() *RunPool {
	p := &RunPool{kernel: sim.NewKernel(), fleet: mac.NewFleet()}
	// Update generation: the source creates an update and announces it in
	// the current ATIM window.
	p.generateFn = func() {
		now := p.kernel.Now()
		payload := p.source.Generate(now)
		p.trackers[p.cfg.Source].Observe(payload, now)
		p.fleet.Node(int(p.cfg.Source)).Broadcast(mac.Packet{
			Key:     mac.PacketKeyFor(p.cfg.Source, uint64(p.source.Generated()-1)),
			Payload: payload,
		})
	}
	// Beacon schedule: one recurring frame tick starts the frame on the
	// whole fleet at each beacon, then closes the ATIM window when it ends.
	p.endWindow = func() { p.fleet.EndATIMWindow(p.kernel.Now()) }
	p.tick = func() {
		p.fleet.StartFrame(p.kernel.Now())
		p.kernel.Schedule(p.cfg.MAC.Timing.Active, p.endWindow)
		p.kernel.Schedule(p.cfg.MAC.Timing.Frame, p.tick)
	}
	return p
}

// deliverFor returns slot i's delivery upcall, binding closures for new
// slots once; they read the tracker through the pool, so they stay valid
// as the tracker slice grows.
func (p *RunPool) deliverFor(i int) mac.DeliveryFunc {
	for len(p.deliver) <= i {
		j := len(p.deliver)
		p.deliver = append(p.deliver, func(pkt mac.Packet, _ topo.NodeID, now time.Duration) {
			if payload, ok := pkt.Payload.(codedist.Payload); ok {
				p.trackers[j].Observe(payload, now)
			}
		})
	}
	return p.deliver[i]
}

// killFor returns slot i's pre-bound fail-stop callback.
func (p *RunPool) killFor(i int) func() {
	for len(p.kills) <= i {
		j := len(p.kills)
		p.kills = append(p.kills, func() { p.fleet.Node(j).Kill() })
	}
	return p.kills[i]
}

// Run executes one scenario on the pool's reused state. The returned
// Result is freshly allocated and safe to retain across later runs.
func (p *RunPool) Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p.cfg = cfg
	kernel := p.kernel
	kernel.Reset()
	if p.channel == nil {
		p.channel = phy.NewChannel(kernel, cfg.Topo)
	} else {
		p.channel.Reset(cfg.Topo)
	}
	channel := p.channel
	channel.SetTrace(cfg.MAC.Trace)
	p.base.Reseed(cfg.Seed)
	base := &p.base
	if cfg.Loss.Rate > 0 {
		base.SplitInto(&p.lossRNG)
		if err := channel.SetLoss(cfg.Loss.Rate, &p.lossRNG); err != nil {
			return nil, err
		}
	}
	// Every diversity feature draws its splits conditionally, so runs with
	// the feature off consume the exact random stream they always did —
	// existing scenarios stay byte-identical.
	if cfg.Loss.LinkMean > 0 {
		base.SplitInto(&p.fillRNG)
		if err := p.linkLoss.FillUniform(cfg.Topo, cfg.Loss.LinkMean, &p.fillRNG); err != nil {
			return nil, err
		}
		base.SplitInto(&p.linkRNG)
		if err := channel.SetLinkLoss(&p.linkLoss, &p.linkRNG); err != nil {
			return nil, err
		}
	}
	var heteroRNG *rng.Source
	if cfg.Hetero.Enabled() {
		base.SplitInto(&p.heteroRNG)
		heteroRNG = &p.heteroRNG
	}
	var energyRNG *rng.Source
	if cfg.Energy.Enabled() {
		base.SplitInto(&p.energyRNG)
		energyRNG = &p.energyRNG
	}

	n := cfg.Topo.N()
	p.fleet.Reset(n, cfg.MAC.Profile, kernel.Now())
	if cap(p.trackers) < n {
		p.trackers = make([]codedist.Tracker, n)
	} else {
		p.trackers = p.trackers[:n]
	}
	for i := 0; i < n; i++ {
		p.trackers[i].Reset()
		nodeCfg := cfg.MAC
		if heteroRNG != nil {
			nodeCfg.Params = cfg.Hetero.Sample(cfg.MAC.Params, heteroRNG)
		}
		if energyRNG != nil {
			nodeCfg.Energy = cfg.Energy.Sample(energyRNG)
		}
		if err := p.fleet.InitNode(i, topo.NodeID(i), nodeCfg, kernel, channel, base, p.deliverFor(i)); err != nil {
			return nil, err
		}
	}

	// Churn: pick the victims and their death times from one dedicated
	// split, then schedule the fail-stop kills. The source is never killed
	// (a dead source makes the delivery metric meaningless).
	if cfg.Churn.FailFraction > 0 {
		base.SplitInto(&p.churnRNG)
		churnRNG := &p.churnRNG
		deaths := int(cfg.Churn.FailFraction*float64(n-1) + 0.5)
		if cap(p.victims) < deaths {
			p.victims = make([]topo.NodeID, 0, deaths)
		}
		p.victims = p.victims[:0]
		p.permBuf = churnRNG.PermInto(p.permBuf, n)
		for _, id := range p.permBuf {
			if len(p.victims) == deaths {
				break
			}
			if topo.NodeID(id) != cfg.Source {
				p.victims = append(p.victims, topo.NodeID(id))
			}
		}
		for _, id := range p.victims {
			at := time.Duration(churnRNG.Float64() * float64(cfg.Duration))
			kernel.ScheduleAt(at, p.killFor(int(id)))
		}
	}

	if err := p.source.Reset(cfg.K); err != nil {
		return nil, err
	}
	// Updates are generated deterministically at rate λ from t=0, on frame
	// boundaries so they arrive during the ATIM window. They are scheduled
	// before the first frame tick and therefore fire first at equal
	// timestamps, letting the source announce in the same window.
	interval := time.Duration(float64(time.Second) / cfg.Lambda)
	for at := time.Duration(0); at < cfg.Duration; at += interval {
		kernel.ScheduleAt(at, p.generateFn)
	}
	kernel.ScheduleAt(0, p.tick)

	if err := kernel.Run(cfg.Duration); err != nil {
		return nil, err
	}
	return p.harvest(), nil
}

// harvest computes the Result from final simulation state, with BFS
// running on the pool's scratch.
func (p *RunPool) harvest() *Result {
	cfg := &p.cfg
	generated := p.source.Generated()
	res := &Result{
		UpdatesGenerated: generated,
		LatencyAtHop:     make(map[int]*stats.Accumulator, len(cfg.TrackHops)),
		NodesAtHop:       make(map[int]int, len(cfg.TrackHops)),
	}
	dist := p.bfs.HopDistances(cfg.Topo, cfg.Source)
	for _, h := range cfg.TrackHops {
		res.LatencyAtHop[h] = &stats.Accumulator{}
		for _, d := range dist {
			if d == h {
				res.NodesAtHop[h]++
			}
		}
	}

	var energyTotal, energySq float64
	var fraction stats.Accumulator
	nodes := p.fleet.Nodes()
	for i, node := range nodes {
		node.FinishMetering(cfg.Duration)
		e := node.EnergyAt(cfg.Duration)
		energyTotal += e
		energySq += e * e
		if node.Dead() {
			if node.Depleted() {
				res.NodesDepleted++
			} else {
				res.NodesDied++
			}
		}
		if topo.NodeID(i) == cfg.Source {
			continue
		}
		tr := &p.trackers[i]
		if generated > 0 {
			fraction.Add(float64(tr.Received()) / float64(generated))
		}
		// Iterate by sequence number: map order would make the floating-
		// point accumulation (and hence the run) nondeterministic.
		for seq := 0; seq < generated; seq++ {
			lat, ok := tr.Latency(seq)
			if !ok {
				continue
			}
			res.Latency.Add(lat.Seconds())
			if acc, ok := res.LatencyAtHop[dist[i]]; ok {
				acc.Add(lat.Seconds())
			}
		}
	}
	if generated > 0 {
		res.EnergyPerUpdateJ = energyTotal / float64(len(nodes)) / float64(generated)
	}
	mean := energyTotal / float64(len(nodes))
	res.EnergyVarianceJ2 = energySq/float64(len(nodes)) - mean*mean
	if cfg.Energy.Enabled() {
		p.lifetimeMetrics(res)
	}
	res.UpdatesReceivedFraction = fraction.Mean()
	res.FramesStarted, res.FramesDelivered, res.FramesCollided = p.channel.Stats()
	return res
}

// lifetimeMetrics fills the network-lifetime fields of res from the
// fleet's death times, sorted in the pool's deaths buffer.
func (p *RunPool) lifetimeMetrics(res *Result) {
	nodes := p.fleet.Nodes()
	buf := p.deaths[:0]
	for _, node := range nodes {
		if node.Dead() {
			buf = append(buf, node.DiedAt())
		}
	}
	slices.Sort(buf)
	p.deaths = buf
	horizon := p.cfg.Duration.Seconds()
	res.TimeToFirstDeathS = horizon
	res.TimeToHalfDeadS = horizon
	if len(buf) > 0 {
		res.TimeToFirstDeathS = buf[0].Seconds()
	}
	n := len(nodes)
	if half := (n + 1) / 2; len(buf) >= half {
		res.TimeToHalfDeadS = buf[half-1].Seconds()
	}
	const coverageSamples = 11
	res.CoverageOverTime = make([]float64, coverageSamples)
	k := 0
	for s := 0; s < coverageSamples; s++ {
		t := time.Duration(float64(p.cfg.Duration) * float64(s) / float64(coverageSamples-1))
		for k < len(buf) && buf[k] <= t {
			k++
		}
		res.CoverageOverTime[s] = float64(n-k) / float64(n)
	}
}
