package experiments

import (
	"sync"

	"pbbf/internal/idealsim"
	"pbbf/internal/netsim"
	"pbbf/internal/topo"
)

// runPools bundles the reusable simulation state one point needs to run
// allocation-free: a netsim run pool, a topology scratch, and an
// ideal-simulator pool. A runPools is single-threaded; ownership is what
// makes it safe.
type runPools struct {
	net   *netsim.RunPool
	topo  *topo.Scratch
	ideal *idealsim.Pool
}

// poolFree is the global free list of idle pool bundles and the only way a
// point gets its pools: runNetPoint and runIdealPoint lease one for the
// duration of the point and return it when the point ends, whether they run
// under a sweep worker, a dist worker or a direct call. A process therefore
// holds at most as many bundles as it has ever had points computing at
// once, and repeated sweeps (the serve and bench paths) reuse the same
// warmed-up pools instead of growing new arenas per request. A plain
// mutex+slice list — NOT sync.Pool, whose contents any GC cycle may drop
// (and the bench harness runs a forced GC between repeats, which would
// defeat the reuse this exists to measure).
var poolFree struct {
	sync.Mutex
	list []*runPools
}

// acquirePools pops a pool bundle off the free list, or builds one.
func acquirePools() *runPools {
	poolFree.Lock()
	defer poolFree.Unlock()
	if n := len(poolFree.list); n > 0 {
		p := poolFree.list[n-1]
		poolFree.list[n-1] = nil
		poolFree.list = poolFree.list[:n-1]
		return p
	}
	return &runPools{net: netsim.NewRunPool(), topo: topo.NewScratch(), ideal: idealsim.NewPool()}
}

// releasePools returns a bundle to the free list.
func releasePools(p *runPools) {
	poolFree.Lock()
	defer poolFree.Unlock()
	poolFree.list = append(poolFree.list, p)
}
