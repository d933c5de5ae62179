package experiments

import (
	"context"
	"sync"

	"pbbf/internal/idealsim"
	"pbbf/internal/netsim"
	"pbbf/internal/sweep"
	"pbbf/internal/topo"
)

// runPools bundles the reusable simulation state one worker needs to run
// points allocation-free: a netsim run pool, a topology scratch, and an
// ideal-simulator pool. A runPools is single-threaded; ownership is what
// makes it safe.
type runPools struct {
	net   *netsim.RunPool
	topo  *topo.Scratch
	ideal *idealsim.Pool
}

// poolFree is the global free list of idle pool bundles. Sweep workers
// check one out for the duration of a RunAllCtx call and return it when the
// worker exits, so repeated sweeps (the serve and bench paths) reuse the
// same warmed-up pools instead of growing new arenas per request. A plain
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

// poolsCtxKey keys the worker-cached bundle in sweep.WorkerLocals.
type poolsCtxKey struct{}

// poolsFor returns the pool bundle the computation should use and a release
// function the caller must run when the point finishes. Under a sweep
// worker the bundle is cached in the worker's locals — checked out once,
// reused for every point the worker claims, returned at worker exit, so the
// per-point release is a no-op. Outside a sweep (direct PointSpec.Run,
// tests) the bundle is leased from the free list for just this point.
func poolsFor(ctx context.Context) (p *runPools, release func()) {
	if locals := sweep.Locals(ctx); locals != nil {
		if v := locals.Get(poolsCtxKey{}); v != nil {
			return v.(*runPools), func() {}
		}
		p := acquirePools()
		locals.Put(poolsCtxKey{}, p, func() { releasePools(p) })
		return p, func() {}
	}
	p = acquirePools()
	return p, func() { releasePools(p) }
}
