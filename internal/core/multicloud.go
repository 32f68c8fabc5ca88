package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/simclock"
)

// ReplicatedStore replicates objects across several clouds for
// provider-scale fault tolerance (paper §6: "our system supports the
// replication of objects in multiple clouds, for tolerating
// provider-scale failures", in the spirit of DepSky [19]).
//
// Writes must reach a majority of providers; reads are served by the
// first provider that has the object; deletes are best-effort everywhere
// (a leftover object on a crashed provider is garbage, not a safety
// problem, and will be re-deleted by a later GC pass after Reboot).
//
// Listing is health-aware and pessimistic about history it has not
// observed. A fresh process starts with List fanning out to every
// reachable replica and merging the union of names: replica health flags
// live in memory, so a replica that missed quorum writes during an outage
// seen only by a previous (now dead) process looks healthy here — and a
// freshly started process is exactly the disaster-recovery case where a
// stale first responder means silent data loss. Only after a Repair pass
// in this process has verified full redundancy does List trust a single
// first responder; any subsequent failure marks the replica unhealthy —
// stickily, until the next successful Repair — and merging resumes. An
// object a stale replica still lists after a missed GC round is harmless
// garbage (recovery always picks the newest dump, and Repair removes
// minority leftovers), whereas an object missing from a stale first
// responder is silent data loss at recovery time.
//
// It holds no Clock: its per-provider fan-out runs on wall-clock
// goroutines, so it belongs in front of real providers, not under a
// simclock.SimClock.
type ReplicatedStore struct {
	stores []cloud.ObjectStore
	// unhealthy[i] is set when replica i fails any operation and cleared
	// only by a Repair pass that restored it to full redundancy.
	unhealthy []atomic.Bool
	// verified is set once a Repair pass in this process reached every
	// provider and restored full redundancy. Until then List always
	// merges: in-memory health flags say nothing about outages a previous
	// incarnation observed.
	verified atomic.Bool
}

var _ cloud.ObjectStore = (*ReplicatedStore)(nil)

// NewReplicatedStore combines the given stores. At least one is required.
func NewReplicatedStore(stores ...cloud.ObjectStore) (*ReplicatedStore, error) {
	if len(stores) == 0 {
		return nil, errors.New("core: replicated store needs at least one backend")
	}
	return &ReplicatedStore{stores: stores, unhealthy: make([]atomic.Bool, len(stores))}, nil
}

// NewObservedReplicatedStore is NewReplicatedStore with every provider
// wrapped in an obs.InstrumentedStore (backend labels "replica-0",
// "replica-1", ...), so /metrics carries per-replica op latency/error
// counters and /healthz reports each replica's reachability — the
// per-provider availability view of the paper's multi-cloud mode (§6).
func NewObservedReplicatedStore(reg *obs.Registry, stores ...cloud.ObjectStore) (*ReplicatedStore, error) {
	if reg == nil {
		return NewReplicatedStore(stores...)
	}
	wrapped := make([]cloud.ObjectStore, len(stores))
	for i, s := range stores {
		wrapped[i] = obs.InstrumentStore(s, reg, fmt.Sprintf("replica-%d", i))
	}
	return NewReplicatedStore(wrapped...)
}

// majority returns the write quorum size.
func (r *ReplicatedStore) majority() int { return len(r.stores)/2 + 1 }

// Put implements cloud.ObjectStore: success on a majority of providers.
func (r *ReplicatedStore) Put(ctx context.Context, name string, data []byte) error {
	type result struct{ err error }
	results := make(chan result, len(r.stores))
	for i, s := range r.stores {
		simclock.Go(simclock.Real(), func() {
			err := s.Put(ctx, name, data)
			if err != nil {
				r.unhealthy[i].Store(true)
			}
			results <- result{err: err}
		})
	}
	oks := 0
	var firstErr error
	for range r.stores {
		res := <-results
		if res.err == nil {
			oks++
			if oks >= r.majority() {
				return nil
			}
		} else if firstErr == nil {
			firstErr = res.err
		}
	}
	return fmt.Errorf("core: replicated put %s reached %d/%d providers: %w",
		name, oks, len(r.stores), firstErr)
}

// Get implements cloud.ObjectStore: first provider that has the object.
// A replica answering ErrNotFound is lagging, not down, so only other
// failures mark it unhealthy.
func (r *ReplicatedStore) Get(ctx context.Context, name string) ([]byte, error) {
	var firstErr error
	for i, s := range r.stores {
		data, err := s.Get(ctx, name)
		if err == nil {
			return data, nil
		}
		if !errors.Is(err, cloud.ErrNotFound) {
			r.unhealthy[i].Store(true)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// List implements cloud.ObjectStore: the union of all reachable listings
// until a Repair pass in this process has verified full redundancy, and
// again whenever any replica is marked unhealthy afterwards (its listing
// may miss quorum-only writes, and a stale first responder at recovery
// time is silent data loss — see the type comment). Only a
// verified-and-healthy store serves the single-LIST fast path.
func (r *ReplicatedStore) List(ctx context.Context, prefix string) ([]cloud.ObjectInfo, error) {
	if r.verified.Load() && r.allHealthy() {
		infos, err := r.stores[0].List(ctx, prefix)
		if err == nil {
			return infos, nil
		}
		r.unhealthy[0].Store(true)
	}
	return r.listMerged(ctx, prefix)
}

// listMerged fans the listing out to every replica and merges the union
// of names. Objects are written once and never overwritten, so on a size
// disagreement the larger (complete) copy wins over a truncated one.
func (r *ReplicatedStore) listMerged(ctx context.Context, prefix string) ([]cloud.ObjectInfo, error) {
	type result struct {
		idx   int
		infos []cloud.ObjectInfo
		err   error
	}
	results := make(chan result, len(r.stores))
	for i, s := range r.stores {
		simclock.Go(simclock.Real(), func() {
			infos, err := s.List(ctx, prefix)
			results <- result{idx: i, infos: infos, err: err}
		})
	}
	merged := make(map[string]cloud.ObjectInfo)
	oks := 0
	var firstErr error
	for range r.stores {
		res := <-results
		if res.err != nil {
			r.unhealthy[res.idx].Store(true)
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		oks++
		for _, info := range res.infos {
			if prev, ok := merged[info.Name]; !ok || info.Size > prev.Size {
				merged[info.Name] = info
			}
		}
	}
	if oks == 0 {
		return nil, firstErr
	}
	out := make([]cloud.ObjectInfo, 0, len(merged))
	for _, info := range merged {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// allHealthy reports whether no replica is currently marked unhealthy.
func (r *ReplicatedStore) allHealthy() bool {
	for i := range r.unhealthy {
		if r.unhealthy[i].Load() {
			return false
		}
	}
	return true
}

// Healthy returns the per-replica health flags (true = healthy), for
// operators and tests.
func (r *ReplicatedStore) Healthy() []bool {
	out := make([]bool, len(r.unhealthy))
	for i := range r.unhealthy {
		out[i] = !r.unhealthy[i].Load()
	}
	return out
}

// Delete implements cloud.ObjectStore: best-effort on every provider;
// succeeds if any provider deleted the object.
func (r *ReplicatedStore) Delete(ctx context.Context, name string) error {
	oks := 0
	var firstErr error
	for i, s := range r.stores {
		err := s.Delete(ctx, name)
		if err == nil || errors.Is(err, cloud.ErrNotFound) {
			oks++
			continue
		}
		r.unhealthy[i].Store(true)
		if firstErr == nil {
			firstErr = err
		}
	}
	if oks > 0 {
		return nil
	}
	return firstErr
}

// RepairReport summarises one anti-entropy pass.
type RepairReport struct {
	// Copied counts objects re-replicated to lagging providers.
	Copied int
	// Removed counts leftover objects deleted from providers that missed
	// a garbage-collection round.
	Removed int
	// Unreachable counts providers that could not be repaired this pass.
	Unreachable int
}

// Repair runs anti-entropy across the providers: objects present on a
// majority are copied to providers missing them, and objects present
// only on a minority (garbage a dead provider missed deleting) are
// removed. Run it after a provider recovers from an outage so the write
// quorum regains full redundancy.
func (r *ReplicatedStore) Repair(ctx context.Context) (RepairReport, error) {
	var report RepairReport
	type listing struct {
		store cloud.ObjectStore
		names map[string]struct{}
		ok    bool
	}
	listings := make([]listing, len(r.stores))
	presence := make(map[string]int)
	reachable := 0
	for i, s := range r.stores {
		infos, err := s.List(ctx, "")
		if err != nil {
			listings[i] = listing{store: s}
			r.unhealthy[i].Store(true)
			report.Unreachable++
			continue
		}
		names := make(map[string]struct{}, len(infos))
		for _, info := range infos {
			names[info.Name] = struct{}{}
			presence[info.Name]++
		}
		listings[i] = listing{store: s, names: names, ok: true}
		reachable++
	}
	if reachable == 0 {
		return report, errors.New("core: repair: no provider reachable")
	}
	quorum := r.majority()
	for name, count := range presence {
		if count >= quorum {
			// Canonical object: copy to reachable providers missing it.
			var data []byte
			for i, l := range listings {
				if !l.ok {
					continue
				}
				if _, has := l.names[name]; !has {
					if data == nil {
						var err error
						data, err = r.Get(ctx, name)
						if err != nil {
							return report, fmt.Errorf("core: repair read %s: %w", name, err)
						}
					}
					if err := l.store.Put(ctx, name, data); err != nil {
						r.unhealthy[i].Store(true)
						return report, fmt.Errorf("core: repair write %s: %w", name, err)
					}
					report.Copied++
				}
			}
			continue
		}
		// Minority object: garbage from a missed GC round. Only safe to
		// judge when every provider answered this pass.
		if reachable < len(r.stores) {
			continue
		}
		for i, l := range listings {
			if _, has := l.names[name]; has {
				if err := l.store.Delete(ctx, name); err != nil && !errors.Is(err, cloud.ErrNotFound) {
					r.unhealthy[i].Store(true)
					return report, fmt.Errorf("core: repair delete %s: %w", name, err)
				}
				report.Removed++
			}
		}
	}
	// Every reachable replica now holds exactly the quorum state: clear
	// their sticky unhealthy flags. Unreachable replicas stay flagged, so
	// List keeps merging until a later Repair restores them.
	for i, l := range listings {
		if l.ok {
			r.unhealthy[i].Store(false)
		}
	}
	// Full redundancy verified in this process only when every provider
	// took part in the pass; from here List may trust a first responder
	// until the next failure.
	if report.Unreachable == 0 {
		r.verified.Store(true)
	}
	return report, nil
}
