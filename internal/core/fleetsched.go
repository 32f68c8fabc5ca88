package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/simclock"
)

// fleetScheduler arbitrates two bounded pools of concurrent cloud
// operations — uploads (PUT/DELETE) and fetches (GET/LIST) — across the
// tenants of a Fleet. The policy guarantees the property the fleet bench
// gates on: an antagonist tenant saturating the bulk path cannot starve
// other tenants' Safety windows.
//
//   - Safety-class operations dispatch earliest-deadline-first (the
//     deadline is enqueue time + the tenant's TS) and are exempt from
//     the per-tenant cap: commit availability is the contract.
//   - Bulk operations are FIFO, capped per tenant (an antagonist can
//     hold at most tenantCap upload slots no matter how many dump parts
//     it has ready), and yield to Safety — except once a bulk waiter has
//     aged past bulkAgingAfter, when it dispatches ahead of fetch
//     traffic so checkpoints always complete.
//   - Fetch operations are FIFO, capped per tenant, on their own pool.
//
// Queues are plain slices scanned at dispatch: the scan is O(waiters),
// and the waiter population is bounded by the fleet's total worker count
// (tenants × uploaders), which keeps dispatch far off any hot path.
type fleetScheduler struct {
	clk simclock.Clock

	uploadSlots    int
	fetchSlots     int
	tenantCap      int
	bulkAgingAfter time.Duration

	mu           sync.Mutex
	uploadInUse  int
	fetchInUse   int
	perTenantCap map[string]int // capped (bulk+fetch) ops in flight per tenant
	safetyQ      []*schedWaiter
	bulkQ        []*schedWaiter
	fetchQ       []*schedWaiter

	inflightByClass [3]atomic.Int64
	starved         atomic.Int64

	waitHist [3]*obs.Histogram
	opsTotal [3]*obs.Counter
	starvedC *obs.Counter
}

// schedWaiter is one blocked acquire.
type schedWaiter struct {
	tenant   string
	class    opClass
	deadline time.Time // Safety only: the TS budget
	enq      time.Time
	ch       chan struct{}
	granted  bool
	removed  bool
}

func newFleetScheduler(clk simclock.Clock, uploadSlots, fetchSlots, tenantCap int,
	bulkAgingAfter time.Duration, reg *obs.Registry) *fleetScheduler {
	s := &fleetScheduler{
		clk:            clk,
		uploadSlots:    uploadSlots,
		fetchSlots:     fetchSlots,
		tenantCap:      tenantCap,
		bulkAgingAfter: bulkAgingAfter,
		perTenantCap:   make(map[string]int),
	}
	if reg != nil {
		for i, name := range opClassNames {
			i := i
			s.waitHist[i] = reg.Histogram(metricFleetSchedWait,
				"Time cloud operations spent queued in the fleet scheduler before dispatch, by class.",
				obs.Labels{"class": name}, nil)
			s.opsTotal[i] = reg.Counter(metricFleetOps,
				"Cloud operations dispatched through the fleet scheduler, by class.",
				obs.Labels{"class": name})
			reg.GaugeFunc(metricFleetInflight,
				"Cloud operations currently holding a fleet-pool slot, by class.",
				obs.Labels{"class": name},
				func() float64 { return float64(s.inflightByClass[i].Load()) })
		}
		s.starvedC = reg.Counter(metricFleetStarvation,
			"Safety-class operations that out-waited their TS deadline in the fleet scheduler queue — each one is a commit window the scheduler failed to protect.", nil)
	}
	return s
}

// starvationCount returns how many Safety-class operations have waited
// past their deadline so far (the fleet bench's zero-miss gate).
func (s *fleetScheduler) starvationCount() int64 { return s.starved.Load() }

// acquire blocks until the operation is granted a slot (or ctx ends).
// Every grant must be paired with a release.
func (s *fleetScheduler) acquire(ctx context.Context, tenant string, class opClass, deadline time.Time) error {
	w := &schedWaiter{
		tenant:   tenant,
		class:    class,
		deadline: deadline,
		enq:      s.clk.Now(),
		ch:       make(chan struct{}),
	}
	s.mu.Lock()
	switch class {
	case classSafety:
		s.safetyQ = append(s.safetyQ, w)
	case classBulk:
		s.bulkQ = append(s.bulkQ, w)
	default:
		s.fetchQ = append(s.fetchQ, w)
	}
	s.dispatchLocked()
	s.mu.Unlock()

	if _, _, err := simclock.Recv(ctx, s.clk, w.ch); err != nil {
		s.mu.Lock()
		if w.granted {
			// Lost the race: the slot was granted as the context died.
			// Hand it straight back.
			s.releaseLocked(w.tenant, w.class)
			s.mu.Unlock()
			return ctx.Err()
		}
		w.removed = true
		s.mu.Unlock()
		return ctx.Err()
	}

	wait := s.clk.Since(w.enq)
	if h := s.waitHist[class]; h != nil {
		h.ObserveDuration(wait)
	}
	if c := s.opsTotal[class]; c != nil {
		c.Add(1)
	}
	if class == classSafety && !w.deadline.IsZero() && s.clk.Now().After(w.deadline) {
		s.starved.Add(1)
		if s.starvedC != nil {
			s.starvedC.Add(1)
		}
	}
	return nil
}

// release returns a slot to the pool and dispatches waiters.
func (s *fleetScheduler) release(tenant string, class opClass) {
	s.mu.Lock()
	s.releaseLocked(tenant, class)
	s.dispatchLocked()
	s.mu.Unlock()
}

func (s *fleetScheduler) releaseLocked(tenant string, class opClass) {
	if class == classFetch {
		s.fetchInUse--
	} else {
		s.uploadInUse--
	}
	if class != classSafety {
		if n := s.perTenantCap[tenant] - 1; n > 0 {
			s.perTenantCap[tenant] = n
		} else {
			delete(s.perTenantCap, tenant)
		}
	}
	s.inflightByClass[class].Add(-1)
}

// dispatchLocked grants slots to eligible waiters until the pools are
// full or no waiter is eligible. Upload-pool priority per free slot:
// aged bulk (waited past bulkAgingAfter, under cap) > Safety EDF > bulk.
// Aged bulk jumping ahead of Safety cannot starve commits because bulk
// is still per-tenant capped — a handful of slots at most — while
// Safety has the run of the pool.
func (s *fleetScheduler) dispatchLocked() {
	var now time.Time // sampled once, only if aging is checked
	for s.uploadInUse < s.uploadSlots {
		if len(s.bulkQ) > 0 && s.bulkAgingAfter > 0 {
			if now.IsZero() {
				now = s.clk.Now()
			}
			if w := s.pickAgedBulkLocked(now); w != nil {
				s.grantLocked(w)
				continue
			}
		}
		if w := s.pickSafetyLocked(); w != nil {
			s.grantLocked(w)
			continue
		}
		if w := s.pickCappedLocked(&s.bulkQ); w != nil {
			s.grantLocked(w)
			continue
		}
		break
	}
	for s.fetchInUse < s.fetchSlots {
		w := s.pickCappedLocked(&s.fetchQ)
		if w == nil {
			break
		}
		s.grantLocked(w)
	}
}

// pickAgedBulkLocked removes and returns the oldest bulk waiter that
// has been queued longer than bulkAgingAfter and is under the tenant
// cap, or nil.
func (s *fleetScheduler) pickAgedBulkLocked(now time.Time) *schedWaiter {
	for i, w := range s.bulkQ {
		if w.removed || s.perTenantCap[w.tenant] >= s.tenantCap {
			continue
		}
		if now.Sub(w.enq) < s.bulkAgingAfter {
			// FIFO queue: everything after this waiter is younger.
			return nil
		}
		s.bulkQ = append(s.bulkQ[:i], s.bulkQ[i+1:]...)
		return w
	}
	return nil
}

// pickSafetyLocked removes and returns the earliest-deadline Safety
// waiter, or nil.
func (s *fleetScheduler) pickSafetyLocked() *schedWaiter {
	best := -1
	for i, w := range s.safetyQ {
		if w.removed {
			continue
		}
		if best == -1 || w.deadline.Before(s.safetyQ[best].deadline) {
			best = i
		}
	}
	if best == -1 {
		s.safetyQ = s.safetyQ[:0]
		return nil
	}
	w := s.safetyQ[best]
	s.safetyQ = append(s.safetyQ[:best], s.safetyQ[best+1:]...)
	return w
}

// pickCappedLocked removes and returns the first waiter in q whose
// tenant is under the per-tenant cap, or nil.
func (s *fleetScheduler) pickCappedLocked(q *[]*schedWaiter) *schedWaiter {
	for i, w := range *q {
		if w.removed {
			continue
		}
		if s.perTenantCap[w.tenant] >= s.tenantCap {
			continue
		}
		*q = append((*q)[:i], (*q)[i+1:]...)
		return w
	}
	// Compact away removed waiters so dead entries don't accumulate.
	kept := (*q)[:0]
	for _, w := range *q {
		if !w.removed {
			kept = append(kept, w)
		}
	}
	*q = kept
	return nil
}

func (s *fleetScheduler) grantLocked(w *schedWaiter) {
	if w.class == classFetch {
		s.fetchInUse++
	} else {
		s.uploadInUse++
	}
	if w.class != classSafety {
		s.perTenantCap[w.tenant]++
	}
	s.inflightByClass[w.class].Add(1)
	w.granted = true
	simclock.Close(s.clk, w.ch)
}

// schedStore routes one tenant's cloud operations through the fleet
// scheduler; the slot is taken here, at the store layer, under whatever
// fan-out the tenant's own worker pools produce. The class is the one the
// caller tagged the context with (cloudIO always does). An untagged
// operation — a tool using the fleet's store directly — is Bulk when it
// writes and Fetch when it reads: never an error, never Safety.
type schedStore struct {
	inner         cloud.ObjectStore
	sched         *fleetScheduler
	tenant        string
	safetyTimeout time.Duration
}

var _ cloud.ObjectStore = (*schedStore)(nil)

// do runs op holding a slot of ctx's class, or of def for an untagged ctx.
func (s *schedStore) do(ctx context.Context, def opClass, op func() error) error {
	class := classOf(ctx, def)
	var deadline time.Time
	if class == classSafety {
		// The deadline is the Safety contract: if this PUT has not even
		// DISPATCHED within TS, commits on this tenant are blocking.
		deadline = s.sched.clk.Now().Add(s.safetyTimeout)
	}
	if err := s.sched.acquire(ctx, s.tenant, class, deadline); err != nil {
		return err
	}
	defer s.sched.release(s.tenant, class)
	return op()
}

func (s *schedStore) Put(ctx context.Context, name string, data []byte) error {
	return s.do(ctx, classBulk, func() error { return s.inner.Put(ctx, name, data) })
}

func (s *schedStore) Get(ctx context.Context, name string) (data []byte, err error) {
	err = s.do(ctx, classFetch, func() error { data, err = s.inner.Get(ctx, name); return err })
	return data, err
}

func (s *schedStore) List(ctx context.Context, prefix string) (infos []cloud.ObjectInfo, err error) {
	err = s.do(ctx, classFetch, func() error { infos, err = s.inner.List(ctx, prefix); return err })
	return infos, err
}

func (s *schedStore) Delete(ctx context.Context, name string) error {
	return s.do(ctx, classBulk, func() error { return s.inner.Delete(ctx, name) })
}
