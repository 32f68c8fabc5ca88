package core

import (
	"context"
	"errors"
	"github.com/ginja-dr/ginja/internal/simclock"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunLimitedRunsEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 100} {
		var done [37]atomic.Bool
		err := runLimited(context.Background(), simclock.Real(), workers, len(done), func(_ context.Context, i int) error {
			if done[i].Swap(true) {
				t.Errorf("workers=%d: task %d ran twice", workers, i)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range done {
			if !done[i].Load() {
				t.Fatalf("workers=%d: task %d never ran", workers, i)
			}
		}
	}
}

func TestRunLimitedBoundsConcurrency(t *testing.T) {
	const workers, n = 3, 50
	var cur, peak atomic.Int64
	err := runLimited(context.Background(), simclock.Real(), workers, n, func(context.Context, int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, worker bound is %d", p, workers)
	}
}

func TestRunLimitedFirstErrorCancelsRest(t *testing.T) {
	boom := errors.New("boom")
	var cancelled atomic.Int64
	err := runLimited(context.Background(), simclock.Real(), 4, 64, func(ctx context.Context, i int) error {
		if i == 0 {
			return boom
		}
		// Later tasks observe the cancellation instead of running forever.
		select {
		case <-ctx.Done():
			cancelled.Add(1)
			return ctx.Err()
		case <-time.After(2 * time.Second):
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the first task error", err)
	}
}

func TestRunLimitedParentCancelIsNotSuccess(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started sync.Once
	err := runLimited(ctx, simclock.Real(), 2, 100, func(ctx context.Context, i int) error {
		started.Do(cancel)
		<-ctx.Done() // simulate an in-flight request aborted by cancellation
		return nil   // task "succeeds" anyway; the pool must still not report success
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled: partial work must not look complete", err)
	}
}

func TestRunLimitedZeroTasks(t *testing.T) {
	if err := runLimited(context.Background(), simclock.Real(), 4, 0, func(context.Context, int) error {
		t.Fatal("task ran")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchInOrderAppliesInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 16} {
		names := make([]string, 41)
		for i := range names {
			names[i] = string(rune('a' + i%26))
		}
		nextWant := 0
		err := prefetchInOrder(context.Background(), simclock.Real(), workers, names,
			func(_ context.Context, name string) ([]byte, error) {
				time.Sleep(time.Duration(len(name)) * time.Microsecond)
				return []byte(name), nil
			},
			func(i int, data []byte) error {
				if i != nextWant {
					t.Fatalf("workers=%d: applied index %d, want %d", workers, i, nextWant)
				}
				if string(data) != names[i] {
					t.Fatalf("workers=%d: index %d got %q want %q", workers, i, data, names[i])
				}
				nextWant++
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if nextWant != len(names) {
			t.Fatalf("workers=%d: applied %d of %d", workers, nextWant, len(names))
		}
	}
}

func TestPrefetchInOrderBoundsReadahead(t *testing.T) {
	const workers = 2 // window = 4
	gate := make(chan struct{})
	var fetched atomic.Int64
	names := make([]string, 64)
	done := make(chan error, 1)
	go func() {
		done <- prefetchInOrder(context.Background(), simclock.Real(), workers, names,
			func(context.Context, string) ([]byte, error) {
				fetched.Add(1)
				return nil, nil
			},
			func(int, []byte) error {
				<-gate // applier stalls; fetchers must not race ahead unboundedly
				return nil
			})
	}()
	time.Sleep(20 * time.Millisecond)
	if f := fetched.Load(); f > int64(workers*2+workers) {
		t.Fatalf("stalled applier but %d objects fetched; window is %d", f, workers*2)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if f := fetched.Load(); f != int64(len(names)) {
		t.Fatalf("fetched %d of %d", f, len(names))
	}
}

func TestPrefetchInOrderFetchError(t *testing.T) {
	boom := errors.New("fetch failed")
	names := make([]string, 20)
	var applied atomic.Int64
	err := prefetchInOrder(context.Background(), simclock.Real(), 4, names,
		func(_ context.Context, name string) ([]byte, error) {
			return nil, boom
		},
		func(int, []byte) error {
			applied.Add(1)
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want fetch error", err)
	}
	if applied.Load() != 0 {
		t.Fatalf("%d objects applied despite immediate fetch failure", applied.Load())
	}
}

// A single failed fetch must cancel the whole prefetch: sibling fetches
// already in flight (possibly deep in retry/backoff) observe the
// cancellation instead of riding out their work on a doomed restore —
// and the error surfaced is the fetch failure, not a cancellation
// artefact from an earlier index.
func TestPrefetchInOrderFetchErrorCancelsInFlight(t *testing.T) {
	boom := errors.New("fetch failed")
	names := make([]string, 16)
	var (
		first     atomic.Bool
		cancelled atomic.Int64
	)
	inflight := make(chan struct{}, len(names))
	err := prefetchInOrder(context.Background(), simclock.Real(), 4, names,
		func(ctx context.Context, _ string) ([]byte, error) {
			if first.CompareAndSwap(false, true) {
				// Fail only once sibling fetches are in flight, so the
				// test really exercises cancelling them.
				for i := 0; i < 2; i++ {
					select {
					case <-inflight:
					case <-time.After(2 * time.Second):
						t.Error("sibling fetches never started")
						return nil, boom
					}
				}
				return nil, boom
			}
			inflight <- struct{}{}
			select {
			case <-ctx.Done():
				cancelled.Add(1)
				return nil, ctx.Err()
			case <-time.After(2 * time.Second):
				t.Error("in-flight fetch not cancelled after sibling failure")
				return nil, nil
			}
		},
		func(int, []byte) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the fetch error", err)
	}
	if cancelled.Load() < 2 {
		t.Fatalf("only %d in-flight fetches observed cancellation", cancelled.Load())
	}
}

func TestPrefetchInOrderApplyErrorStopsEverything(t *testing.T) {
	boom := errors.New("apply failed")
	names := make([]string, 32)
	err := prefetchInOrder(context.Background(), simclock.Real(), 4, names,
		func(context.Context, string) ([]byte, error) { return nil, nil },
		func(i int, _ []byte) error {
			if i == 3 {
				return boom
			}
			if i > 3 {
				t.Fatalf("apply(%d) ran after apply(3) failed", i)
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want apply error", err)
	}
}
