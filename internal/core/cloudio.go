package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/sealer"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// opClass says what a cloud operation is for. The caller knows — the
// commit path, the checkpoint path or a read — and says so; the class
// picks the in-flight gauge here and, under a Fleet, the pool and the
// ordering the shared scheduler gives the operation.
type opClass int

const (
	// classSafety is a commit-path WAL PUT: the operation a database is
	// (or soon will be) blocked on via the Safety contract.
	classSafety opClass = iota
	// classBulk is checkpoint-path traffic — DB-object PUTs and GC
	// DELETEs: what a dumping or compacting antagonist tenant floods the
	// upload pool with.
	classBulk
	// classFetch is read traffic — GETs and LISTs from recovery, Verify
	// and followers — drawn from its own pool, so a recovery storm cannot
	// consume upload slots.
	classFetch
)

var opClassNames = [3]string{"safety", "bulk", "fetch"}

type classKey struct{}

// withClass tags ctx with class. The tag is how the class reaches the
// fleet's schedStore through the cloud.ObjectStore interface. A context
// already carrying the class is returned as is, so an actor that tags its
// long-lived context once (the pipeline, the checkpointer, one recovery)
// pays nothing per operation.
func withClass(ctx context.Context, class opClass) context.Context {
	if classOf(ctx, -1) == class {
		return ctx
	}
	return context.WithValue(ctx, classKey{}, class)
}

// classOf returns the class ctx was tagged with, or def for an untagged
// context (an operation that did not come through cloudIO).
func classOf(ctx context.Context, def opClass) opClass {
	if c, ok := ctx.Value(classKey{}).(opClass); ok {
		return c
	}
	return def
}

type opKind int

const (
	opPut opKind = iota
	opGet
	opList
	opDelete
)

// cloudIO is the one seam between core and the cloud: the only holder of
// the (prefix-rooted) object store and of the sealer, and the only place a
// PUT, GET, LIST or DELETE is issued, retried, classed and counted. Every
// actor — pipeline, checkpointer and its GC, Boot, the recoveries, Verify,
// the Follower — holds a *cloudIO instead of a store.
type cloudIO struct {
	store  cloud.ObjectStore
	seal   *sealer.Sealer
	clk    simclock.Clock
	params Params

	// retries counts the transient failures absorbed on Safety-class
	// operations (Stats.UploadRetries / ginja_upload_retries_total).
	retries  atomic.Int64
	retriesC *obs.Counter

	// inflight counts the requests in flight per (op, class); the four pairs
	// that exist are the ginja_cloud_inflight_requests{op,path} gauges.
	inflight [opDelete + 1][classFetch + 1]atomic.Int64

	recFetch *obs.Histogram // per-object GET during recovery prefetch
}

// newCloudIO roots store at params.Prefix and builds the sealer params
// describe.
func newCloudIO(store cloud.ObjectStore, params Params) (*cloudIO, error) {
	seal, err := sealer.New(sealer.Options{
		Compress: params.Compress,
		Encrypt:  params.Encrypt,
		Password: params.Password,
	})
	if err != nil {
		return nil, err
	}
	c := &cloudIO{
		store:  cloud.NewPrefixStore(store, params.Prefix),
		seal:   seal,
		clk:    params.clock(),
		params: params,
	}
	if reg := params.Metrics; reg != nil {
		c.retriesC = reg.Counter(metricRetries, "Transient cloud failures absorbed by upload retries.", nil)
		for _, g := range []struct {
			kind     opKind
			class    opClass
			op, path string
		}{
			{opPut, classSafety, "put", "wal"},
			{opPut, classBulk, "put", "checkpoint"},
			{opDelete, classBulk, "delete", "gc"},
			{opGet, classFetch, "get", "recovery"},
		} {
			n := &c.inflight[g.kind][g.class]
			reg.GaugeFunc(metricCloudInflight,
				"Cloud requests currently in flight, by operation and data path.",
				obs.Labels{"op": g.op, "path": g.path},
				func() float64 { return float64(n.Load()) })
		}
		c.recFetch = reg.Histogram(metricRecoveryFetch,
			"Per-object GET duration during recovery prefetch in seconds.", nil, nil)
	}
	return c, nil
}

// run is the retry policy, the only one: call op until it succeeds, with
// exponential backoff from RetryBaseDelay (floored at minRetryDelay,
// doubling up to maxRetryDelay) slept on the injected clock and
// jittered per retryJitter — WAL objects, dump parts and GC deletes alike
// — for at most attempts tries (0 = until ctx ends: a transient cloud
// hiccup must delay, not lose, the backup). A missing object is permanent
// for GET (returned unwrapped: the Follower's "GC'd under us" skip matches
// it with errors.Is) and success for DELETE. A cancelled context returns
// the last store error at once. op must not be retained: a caller's
// closure then stays on its stack and an operation allocates nothing.
func (c *cloudIO) run(ctx context.Context, class opClass, kind opKind, name string, attempts int,
	op func(ctx context.Context) error) error {
	ctx = withClass(ctx, class)
	n := &c.inflight[kind][class]
	n.Add(1)
	defer n.Add(-1)
	delay := max(c.params.RetryBaseDelay, minRetryDelay)
	for attempt := 0; ; attempt++ {
		err := op(ctx)
		if err == nil || (kind == opDelete && errors.Is(err, cloud.ErrNotFound)) {
			return nil
		}
		if ctx.Err() != nil || (kind == opGet && errors.Is(err, cloud.ErrNotFound)) ||
			(attempts > 0 && attempt+1 >= attempts) {
			return err
		}
		if class == classSafety {
			c.retries.Add(1)
			if c.retriesC != nil {
				c.retriesC.Inc()
			}
		}
		if simclock.SleepCtx(ctx, c.clk, retryJitter(delay, name, attempt, c.clk.Now())) != nil {
			return err
		}
		delay = min(delay*2, maxRetryDelay)
	}
}

// put uploads one object. class is classSafety for a WAL object and
// classBulk for a DB-object part.
func (c *cloudIO) put(ctx context.Context, class opClass, name string, data []byte) error {
	return c.run(ctx, class, opPut, name, c.params.UploadRetries, func(ctx context.Context) error {
		return c.store.Put(ctx, name, data)
	})
}

// get downloads one object (Fetch class).
func (c *cloudIO) get(ctx context.Context, name string) (data []byte, err error) {
	err = c.run(ctx, classFetch, opGet, name, c.params.UploadRetries, func(ctx context.Context) error {
		data, err = c.store.Get(ctx, name)
		return err
	})
	return data, err
}

// list lists the whole (prefix-rooted) bucket (Fetch class). once makes it
// a single attempt, for a caller whose own poll cadence is the retry
// policy.
func (c *cloudIO) list(ctx context.Context, once bool) (infos []cloud.ObjectInfo, err error) {
	attempts := c.params.UploadRetries
	if once {
		attempts = 1
	}
	err = c.run(ctx, classFetch, opList, "LIST", attempts, func(ctx context.Context) error {
		infos, err = c.store.List(ctx, "")
		return err
	})
	return infos, err
}

// delete removes one object (Bulk class); an object already gone counts
// as removed.
func (c *cloudIO) delete(ctx context.Context, name string) error {
	err := c.run(ctx, classBulk, opDelete, name, c.params.UploadRetries, func(ctx context.Context) error {
		return c.store.Delete(ctx, name)
	})
	if err != nil {
		return fmt.Errorf("core: delete %s: %w", name, err)
	}
	return nil
}

// deleteAll is the one garbage-collection sweep: names go through a
// bounded pool of DELETEs and each success is reported by index as it
// happens, so the caller's bookkeeping stays exact about what still exists
// when a sweep is interrupted. It stops at the first error.
func (c *cloudIO) deleteAll(ctx context.Context, names []string, onDeleted func(i int)) error {
	ctx = withClass(ctx, classBulk)
	return runLimited(ctx, c.clk, c.params.CheckpointUploaders, len(names), func(ctx context.Context, i int) error {
		if err := c.delete(ctx, names[i]); err != nil {
			return err
		}
		onDeleted(i)
		return nil
	})
}

// restore is the read path every recovery shares (cold recovery, Verify,
// the Follower's tail and Promote): names are fetched by up to
// RecoveryFetchers parallel GETs — hiding per-request latency — while each
// envelope is opened, decoded and replayed onto target strictly in order.
// It returns how many names were applied. Each GET is timed (retries
// included) into ginja_recovery_fetch_seconds and, when bd is set, into its
// fetch time/bytes/objects; the fetchers run in parallel, so those fields
// are guarded here, while decode/apply accumulate on the ordered side.
func (c *cloudIO) restore(ctx context.Context, target vfs.FS, names []string, bd *RecoveryBreakdown) (applied int, err error) {
	ctx = withClass(ctx, classFetch) // once per restore, not per GET
	var mu sync.Mutex
	fetch := func(ctx context.Context, name string) ([]byte, error) {
		start := c.clk.Now()
		data, err := c.get(ctx, name)
		if err != nil {
			return nil, &fetchError{name: name, err: err}
		}
		d := c.clk.Since(start)
		if c.recFetch != nil {
			c.recFetch.ObserveDuration(d)
		}
		if bd != nil {
			mu.Lock()
			bd.Fetch += d
			bd.Bytes += int64(len(data))
			bd.Objects++
			mu.Unlock()
		}
		return data, nil
	}
	apply := func(i int, env []byte) error {
		if err := openAndApply(c.seal, c.clk, target, names[i], env, bd); err != nil {
			return err
		}
		applied++
		return nil
	}
	err = prefetchInOrder(ctx, c.clk, c.params.RecoveryFetchers, names, fetch, apply)
	return applied, err
}

// fetchError is a restore's failed GET. It names the object, so a Follower
// whose GET lost the race with the primary's GC knows what to forget.
type fetchError struct {
	name string
	err  error
}

func (e *fetchError) Error() string { return fmt.Sprintf("core: fetch %s: %v", e.name, e.err) }
func (e *fetchError) Unwrap() error { return e.err }
