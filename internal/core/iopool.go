package core

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/ginja-dr/ginja/internal/simclock"
)

// This file is the bounded fan-out under the cloud seam (cloudio.go):
// part uploads, GC deletes and recovery prefetch run their requests
// through runLimited or prefetchInOrder instead of a serial loop. The
// helpers only control how many requests are in flight at once, which is
// what hides per-request cloud latency (the lever the paper pulls with its
// five Uploader threads on the commit path); what one request does — class,
// retry, backoff — is the seam's business. Under a Fleet the worker count
// is only the fan-out, not a reservation: each request still takes its
// slot from the shared scheduler where the seam meets the store
// (schedStore), in the class its caller gave it.

// runLimited executes n index-addressed tasks with at most workers
// goroutines in flight, stopping at the first error. Tasks receive a
// context that is cancelled as soon as any task fails, so retry loops
// inside a task abort instead of riding out their backoff. The first task
// error is returned; if the parent context is cancelled before every task
// completed, that cancellation error is returned instead of silently
// reporting success on partial work. The workers start and are awaited
// through clk's hand-off helpers.
func runLimited(ctx context.Context, clk simclock.Clock, workers, n int, task func(ctx context.Context, i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next    atomic.Int64
		done    atomic.Int64
		wg      = simclock.NewGroup(clk)
		errOnce sync.Once
		first   error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			first = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Go(func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= n || gctx.Err() != nil {
					return
				}
				if err := task(gctx, i); err != nil {
					fail(err)
					return
				}
				done.Add(1)
			}
		})
	}
	wg.Wait()
	if first != nil {
		return first
	}
	if int(done.Load()) != n {
		// Cancelled mid-way by the parent context: some tasks were skipped.
		if err := ctx.Err(); err != nil {
			return err
		}
		return context.Canceled
	}
	return nil
}

// prefetchInOrder fetches names with up to workers parallel fetchers while
// delivering the results to apply strictly in index order — the
// fetch-in-parallel / apply-in-order split that recovery needs: GETs
// overlap to hide per-request latency, but dump → checkpoints → WAL
// replay ordering is preserved exactly.
//
// A bounded readahead window (2× the worker count) caps how far completed
// fetches can run ahead of the applier, so prefetching a huge object set
// cannot buffer the whole backup in memory. Workers acquire a window slot
// before claiming an index, which guarantees the lowest outstanding index
// always owns a slot — the applier can always make progress.
func prefetchInOrder(ctx context.Context, clk simclock.Clock, workers int, names []string,
	fetch func(ctx context.Context, name string) ([]byte, error),
	apply func(i int, data []byte) error) error {
	n := len(names)
	if n == 0 {
		return ctx.Err()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	window := workers * 2
	if window > n {
		window = n
	}

	type result struct {
		data []byte
		err  error
	}
	wg := simclock.NewGroup(clk)
	defer wg.Wait()
	gctx, cancel := context.WithCancel(ctx)
	defer cancel() // runs before wg.Wait: workers parked on the window wake up

	// The first fetch error cancels gctx so in-flight and queued fetches
	// stop at once instead of riding out retries on a doomed restore. The
	// applier may then observe a cancellation-flavoured result for an
	// earlier index before reaching the failed one, so the triggering
	// error is kept aside and preferred on every error path.
	var (
		failMu  sync.Mutex
		failErr error
	)
	fail := func(err error) {
		failMu.Lock()
		if failErr == nil {
			failErr = err
			cancel()
		}
		failMu.Unlock()
	}
	firstErr := func(fallback error) error {
		failMu.Lock()
		defer failMu.Unlock()
		if failErr != nil {
			return failErr
		}
		return fallback
	}

	results := make([]chan result, n)
	for i := range results {
		results[i] = make(chan result, 1)
	}
	sem := make(chan struct{}, window)
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Go(func() {
			for {
				// The slot is released when the applier consumes.
				if simclock.Send(gctx, clk, sem, struct{}{}) != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				data, err := fetch(gctx, names[i])
				simclock.Send(context.Background(), clk, results[i], result{data: data, err: err}) //nolint:errcheck // buffered, never blocks
				if err != nil {
					fail(err)
					return
				}
			}
		})
	}
	for i := 0; i < n; i++ {
		r, _, err := simclock.Recv(gctx, clk, results[i])
		if err != nil {
			return firstErr(err)
		}
		if r.err != nil {
			return firstErr(r.err)
		}
		if err := apply(i, r.data); err != nil {
			return err
		}
		simclock.Recv(context.Background(), clk, sem) //nolint:errcheck // never blocks: result i held a slot
	}
	return nil
}
