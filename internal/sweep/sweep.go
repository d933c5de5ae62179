// Package sweep runs independent experiment points concurrently with a
// bounded worker pool. Every data point in this repository derives its own
// seed and builds its own state, so points can execute in any order; the
// results are returned in index order, keeping experiment output
// deterministic regardless of scheduling.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// MapCtx evaluates fn(ctx, 0..n-1) across at most workers goroutines and
// returns the results in index order. If any invocation fails, MapCtx still
// waits for all in-flight work and returns the error from the smallest
// failing index (deterministic error reporting). workers <= 0 selects
// GOMAXPROCS. When ctx is done, workers stop claiming new indices,
// in-flight invocations are drained, and the context's error is returned.
// Cancellation takes precedence over point errors, so a cancelled run
// reports why it stopped rather than whichever point happened to fail while
// the pool wound down. fn receives ctx so long-running points can observe
// cancellation themselves. Workers claim indices in increasing order, so
// an invocation may wait on one with a smaller index: that one has
// already been claimed and runs to completion.
func MapCtx[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if ctx == nil {
		return nil, fmt.Errorf("sweep: nil context")
	}
	if n < 0 {
		return nil, fmt.Errorf("sweep: negative point count %d", n)
	}
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil point function")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return results, ctx.Err()
	}

	var (
		wg   sync.WaitGroup
		next int
		mu   sync.Mutex
	)
	claim := func() (int, bool) {
		if ctx.Err() != nil {
			return 0, false
		}
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				results[i], errs[i] = fn(ctx, i)
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
