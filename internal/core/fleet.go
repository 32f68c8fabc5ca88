package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// Fleet parameter defaults. The pool sizes are process-wide, not
// per-tenant: a thousand-tenant fleet still issues at most UploadSlots
// concurrent PUT/DELETEs against the bucket.
const (
	DefaultFleetUploadSlots    = 64
	DefaultFleetFetchSlots     = 32
	DefaultFleetTenantCap      = 4
	DefaultFleetBulkAgingAfter = 2 * time.Second
	// DefaultFleetPrefixRoot is where Admit roots tenants that don't
	// specify their own Params.Prefix.
	DefaultFleetPrefixRoot = "tenants"
)

// FleetParams configures a Fleet: the shared bucket, the shared pool
// sizes and the fairness knobs. Per-tenant (B, TB, S, TS, …) knobs stay
// in the Params each Admit call passes.
type FleetParams struct {
	// Store is the shared bucket every tenant's objects land in, each
	// under its own validated prefix.
	Store cloud.ObjectStore
	// UploadSlots bounds the fleet-wide concurrent PUT/DELETE
	// operations (0 = DefaultFleetUploadSlots). Safety-class WAL PUTs
	// dispatch earliest-deadline-first from this pool.
	UploadSlots int
	// FetchSlots bounds the fleet-wide concurrent GET/LIST operations
	// (0 = DefaultFleetFetchSlots).
	FetchSlots int
	// TenantCap bounds the upload+fetch slots one tenant's bulk
	// (checkpoint/GC) and fetch traffic may hold simultaneously, so a
	// dumping antagonist cannot monopolise either pool
	// (0 = DefaultFleetTenantCap). Safety-class PUTs are exempt.
	TenantCap int
	// BulkAgingAfter promotes a bulk operation that has waited this
	// long ahead of Safety traffic for one slot, guaranteeing
	// checkpoints complete even under sustained commit load
	// (0 = DefaultFleetBulkAgingAfter, < 0 disables aging).
	BulkAgingAfter time.Duration
	// Metrics receives the ginja_fleet_* telemetry (tenant counts,
	// scheduler queue waits, per-class in-flight gauges, Safety
	// starvation counter). nil disables fleet instrumentation.
	Metrics *obs.Registry
	// Clock drives every tenant's timers. nil makes the Fleet create a
	// tick wheel over the wall clock so all tenants' TB/TS/tuner/trim
	// timers multiplex onto one timer; fleet sims pass a shared
	// *simclock.SimClock instead (itself already a single timer heap).
	Clock simclock.Clock
}

func (fp FleetParams) withDefaults() (FleetParams, error) {
	if fp.Store == nil {
		return fp, fmt.Errorf("core: FleetParams.Store is required")
	}
	if fp.UploadSlots == 0 {
		fp.UploadSlots = DefaultFleetUploadSlots
	}
	if fp.FetchSlots == 0 {
		fp.FetchSlots = DefaultFleetFetchSlots
	}
	if fp.TenantCap == 0 {
		fp.TenantCap = DefaultFleetTenantCap
	}
	if fp.BulkAgingAfter == 0 {
		fp.BulkAgingAfter = DefaultFleetBulkAgingAfter
	}
	if fp.UploadSlots < 1 {
		return fp, fmt.Errorf("core: FleetParams.UploadSlots must be ≥ 1, got %d", fp.UploadSlots)
	}
	if fp.FetchSlots < 1 {
		return fp, fmt.Errorf("core: FleetParams.FetchSlots must be ≥ 1, got %d", fp.FetchSlots)
	}
	if fp.TenantCap < 1 {
		return fp, fmt.Errorf("core: FleetParams.TenantCap must be ≥ 1, got %d", fp.TenantCap)
	}
	return fp, nil
}

// Fleet multiplexes many Ginja instances — one per tenant database —
// over shared process-wide resources: one bucket (per-tenant prefixes),
// two bounded cloud-operation pools with a deadline-aware fairness
// scheduler, and one tick wheel carrying every tenant's timers. The
// per-tenant footprint is a handful of goroutines and the pipeline's
// fixed buffers; everything heavy is shared.
//
// Lifecycle: NewFleet → Admit (repeatedly, any time) → each tenant is
// Booted/Recovered through its *Ginja handle → Evict or Close. Admit
// and Evict are safe to call while other tenants run.
type Fleet struct {
	fp    FleetParams
	sched *fleetScheduler
	clk   simclock.Clock
	wheel *simclock.Wheel // non-nil iff the fleet owns its tick wheel

	mu       sync.Mutex
	tenants  map[string]*Ginja
	prefixes map[string]string // tenant id → prefix
	closed   bool

	admitted *obs.Counter
	evicted  *obs.Counter
}

// NewFleet creates a fleet over the shared store. Close releases the
// shared resources after closing any remaining tenants.
func NewFleet(fp FleetParams) (*Fleet, error) {
	fp, err := fp.withDefaults()
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		fp:       fp,
		tenants:  make(map[string]*Ginja),
		prefixes: make(map[string]string),
	}
	if fp.Clock != nil {
		f.clk = fp.Clock
	} else {
		// One timer for the whole fleet: every tenant's TB, TS, tuner
		// and retention-trim timers land on this wheel.
		f.wheel = simclock.NewWheel(simclock.Real())
		f.clk = f.wheel
	}
	f.sched = newFleetScheduler(f.clk, fp.UploadSlots, fp.FetchSlots,
		fp.TenantCap, fp.BulkAgingAfter, fp.Metrics)
	if fp.Metrics != nil {
		fp.Metrics.GaugeFunc(metricFleetTenants,
			"Tenant databases currently admitted to the fleet.", nil,
			func() float64 {
				f.mu.Lock()
				defer f.mu.Unlock()
				return float64(len(f.tenants))
			})
		f.admitted = fp.Metrics.Counter(metricFleetAdmitted,
			"Tenants admitted to the fleet since process start.", nil)
		f.evicted = fp.Metrics.Counter(metricFleetEvicted,
			"Tenants evicted from the fleet since process start.", nil)
	}
	return f, nil
}

// Admit adds a tenant database to the fleet and returns its Ginja
// handle (not yet booted — the caller drives Boot or Recover). The
// tenant's cloud objects live under params.Prefix, defaulting to
// "tenants/<id>"; the prefix must not nest inside (or enclose) any
// other admitted tenant's prefix. params.Clock is overridden with the
// fleet clock so the tenant's timers ride the shared wheel.
func (f *Fleet) Admit(id string, localFS vfs.FS, proc dbevent.Processor, params Params) (*Ginja, error) {
	if id == "" {
		return nil, fmt.Errorf("core: fleet tenant id must be non-empty")
	}
	if params.Prefix == "" {
		if err := ValidatePrefix(id); err != nil {
			return nil, fmt.Errorf("core: fleet tenant id %q is not a valid prefix segment: %w", id, err)
		}
		params.Prefix = DefaultFleetPrefixRoot + "/" + id
	}
	if err := ValidatePrefix(params.Prefix); err != nil {
		return nil, err
	}
	params.Clock = f.clk

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, fmt.Errorf("core: fleet is closed")
	}
	if _, dup := f.tenants[id]; dup {
		f.mu.Unlock()
		return nil, fmt.Errorf("core: fleet tenant %q already admitted", id)
	}
	for other, p := range f.prefixes {
		if prefixesOverlap(p, params.Prefix) {
			f.mu.Unlock()
			return nil, fmt.Errorf("core: prefix %q overlaps tenant %q prefix %q",
				params.Prefix, other, p)
		}
	}
	// Reserve id+prefix before the (unlocked) construction so a
	// concurrent Admit can't claim an overlapping prefix.
	f.tenants[id] = nil
	f.prefixes[id] = params.Prefix
	f.mu.Unlock()

	ss := &schedStore{
		inner:         f.fp.Store,
		sched:         f.sched,
		tenant:        id,
		safetyTimeout: params.SafetyTimeout,
	}
	if ss.safetyTimeout == 0 {
		ss.safetyTimeout = DefaultSafetyTimeout
	}
	g, err := New(localFS, ss, proc, params)
	if err != nil {
		f.mu.Lock()
		delete(f.tenants, id)
		delete(f.prefixes, id)
		f.mu.Unlock()
		return nil, err
	}

	f.mu.Lock()
	if f.closed {
		delete(f.tenants, id)
		delete(f.prefixes, id)
		f.mu.Unlock()
		g.Close()
		return nil, fmt.Errorf("core: fleet is closed")
	}
	f.tenants[id] = g
	f.mu.Unlock()
	if f.admitted != nil {
		f.admitted.Add(1)
	}
	return g, nil
}

// prefixesOverlap reports whether two validated prefixes name the same
// subtree or one encloses the other.
func prefixesOverlap(a, b string) bool {
	return a == b || strings.HasPrefix(a, b+"/") || strings.HasPrefix(b, a+"/")
}

// Evict closes a tenant's Ginja instance and removes it from the
// fleet. The tenant's cloud objects stay in the bucket (a later Admit
// with the same prefix can Recover them).
func (f *Fleet) Evict(id string) error {
	f.mu.Lock()
	g, ok := f.tenants[id]
	if ok {
		delete(f.tenants, id)
		delete(f.prefixes, id)
	}
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: fleet tenant %q not admitted", id)
	}
	if f.evicted != nil {
		f.evicted.Add(1)
	}
	if g == nil { // reserved but construction never completed
		return nil
	}
	return g.Close()
}

// Tenant returns the Ginja handle for an admitted tenant, or nil.
func (f *Fleet) Tenant(id string) *Ginja {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tenants[id]
}

// Tenants returns the admitted tenant ids, sorted.
func (f *Fleet) Tenants() []string {
	f.mu.Lock()
	ids := make([]string, 0, len(f.tenants))
	for id := range f.tenants {
		ids = append(ids, id)
	}
	f.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// FleetStats is a point-in-time aggregate across the fleet.
type FleetStats struct {
	// Tenants is the number of currently admitted databases.
	Tenants int
	// PendingUpdates sums every tenant's non-synchronized updates.
	PendingUpdates int
	// SafetyDeadlineMisses counts Safety-class PUTs that out-waited
	// their TS budget in the shared scheduler queue since process
	// start. Zero means no tenant's commit window was ever starved by
	// another tenant's traffic.
	SafetyDeadlineMisses int64
	// UploadInflight / FetchInflight are the pool slots in use now.
	UploadInflight int
	FetchInflight  int
}

// Stats aggregates scheduler and per-tenant state.
func (f *Fleet) Stats() FleetStats {
	f.mu.Lock()
	st := FleetStats{Tenants: len(f.tenants)}
	gs := make([]*Ginja, 0, len(f.tenants))
	for _, g := range f.tenants {
		if g != nil {
			gs = append(gs, g)
		}
	}
	f.mu.Unlock()
	for _, g := range gs {
		st.PendingUpdates += g.PendingUpdates()
	}
	st.SafetyDeadlineMisses = f.sched.starvationCount()
	f.sched.mu.Lock()
	st.UploadInflight = f.sched.uploadInUse
	st.FetchInflight = f.sched.fetchInUse
	f.sched.mu.Unlock()
	return st
}

// Close evicts every tenant and releases the shared resources. Safe to
// call once; tenants' local databases are left intact.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	gs := make([]*Ginja, 0, len(f.tenants))
	for _, g := range f.tenants {
		if g != nil {
			gs = append(gs, g)
		}
	}
	f.tenants = make(map[string]*Ginja)
	f.prefixes = make(map[string]string)
	f.mu.Unlock()

	var firstErr error
	// Tenants close concurrently: each drain can wait on in-flight
	// uploads, and serial closes of a thousand tenants would stack
	// those waits end to end.
	wg := simclock.NewGroup(f.clk)
	var errMu sync.Mutex
	for _, g := range gs {
		wg.Go(func() {
			if err := g.Close(); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		})
	}
	wg.Wait()
	if f.wheel != nil {
		f.wheel.Stop()
	}
	return firstErr
}
