package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestMapOrdering(t *testing.T) {
	got, err := MapCtx(context.Background(), 100, 8, func(_ context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d", i, v)
		}
	}
}

func TestMapZeroPoints(t *testing.T) {
	got, err := MapCtx(context.Background(), 0, 4, func(context.Context, int) (int, error) { return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("len = %d", len(got))
	}
}

func TestMapNegativeN(t *testing.T) {
	if _, err := MapCtx(context.Background(), -1, 4, func(context.Context, int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestMapNilFn(t *testing.T) {
	if _, err := MapCtx[int](context.Background(), 5, 4, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
}

func TestMapDefaultWorkers(t *testing.T) {
	got, err := MapCtx(context.Background(), 10, 0, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
}

func TestMapFirstErrorWins(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	_, err := MapCtx(context.Background(), 10, 4, func(_ context.Context, i int) (int, error) {
		switch i {
		case 3:
			return 0, errA
		case 7:
			return 0, errB
		default:
			return i, nil
		}
	})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the smallest-index error", err)
	}
}

func TestMapRunsEveryPointOnce(t *testing.T) {
	var counts [64]int32
	_, err := MapCtx(context.Background(), len(counts), 8, func(_ context.Context, i int) (struct{}, error) {
		atomic.AddInt32(&counts[i], 1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("point %d ran %d times", i, c)
		}
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var active, peak int32
	_, err := MapCtx(context.Background(), 50, workers, func(_ context.Context, i int) (int, error) {
		cur := atomic.AddInt32(&active, 1)
		for {
			old := atomic.LoadInt32(&peak)
			if cur <= old || atomic.CompareAndSwapInt32(&peak, old, cur) {
				break
			}
		}
		// Busy-yield to give other workers a chance to overlap.
		for j := 0; j < 1000; j++ {
			_ = j
		}
		atomic.AddInt32(&active, -1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt32(&peak); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestMapCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	_, err := MapCtx(ctx, 1000, 2, func(_ context.Context, i int) (int, error) {
		if atomic.AddInt32(&ran, 1) == 3 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers stop claiming once the context is done: at most the points
	// already in flight when cancel fired can still complete.
	if n := atomic.LoadInt32(&ran); n >= 1000 {
		t.Fatalf("cancellation did not stop the sweep (%d points ran)", n)
	}
}

func TestMapCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	_, err := MapCtx(ctx, 100, 4, func(_ context.Context, i int) (int, error) {
		atomic.AddInt32(&ran, 1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if atomic.LoadInt32(&ran) != 0 {
		t.Fatal("points ran under an already-cancelled context")
	}
}

func TestMapCtxCancellationBeatsPointError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapCtx(ctx, 4, 1, func(_ context.Context, i int) (int, error) {
		return 0, errors.New("point failure")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the context error to take precedence", err)
	}
}

func TestMapCtxNilContext(t *testing.T) {
	var nilCtx context.Context // the nil-context guard is what's under test
	if _, err := MapCtx[int](nilCtx, 5, 2, func(context.Context, int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("nil context accepted")
	}
}

// Property: results equal the sequential evaluation for any (n, workers).
func TestPropertyMatchesSequential(t *testing.T) {
	check := func(rawN, rawW uint8) bool {
		n := int(rawN) % 50
		w := int(rawW)%8 + 1
		got, err := MapCtx(context.Background(), n, w, func(_ context.Context, i int) (int, error) { return 3*i + 1, nil })
		if err != nil {
			return false
		}
		for i, v := range got {
			if v != 3*i+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
