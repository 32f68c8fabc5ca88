// Package ginja is a disaster-recovery middleware for transactional
// databases that replicates committed state to cloud object storage —
// no backup VM required — reproducing the system described in
// "Ginja: One-dollar Cloud-based Disaster Recovery for Databases"
// (Alcântara, Oliveira, Bessani — Middleware '17).
//
// Ginja sits between a database engine and its files: every write the
// engine performs goes through an interposed file system (FS), is
// classified into the events of the paper's Table 1 (update commit,
// checkpoint begin/data/end), and is replicated to an ObjectStore as WAL
// objects and DB objects. Two parameters control the cost / performance /
// durability trade-off:
//
//   - Batch (B): how many database updates go into each cloud upload.
//   - Safety (S): how many updates may be lost in a disaster; the
//     database blocks once S updates are unacknowledged.
//
// # Quick start
//
//	store, _ := ginja.NewDiskStore("./bucket")         // or NewS3Client(...)
//	local, _ := ginja.NewOSFS("./dbdir")
//	g, _ := ginja.New(local, store, ginja.NewPGProcessor(), ginja.DefaultParams())
//	_ = g.Boot(ctx)                                    // upload the initial copy
//	db, _ := ginja.OpenDB(g.FS(), ginja.NewPostgresEngine(), ginja.DBOptions{})
//	// ... use db; commits are replicated automatically ...
//	_ = g.Close()
//
// After a disaster, point a fresh Ginja at the same store and call
// Recover: the database files are rebuilt from the newest dump, its delta
// chain and the incremental checkpoints, and the WAL objects with
// consecutive timestamps; the database engine then completes its own
// crash recovery.
//
// This package is a façade: implementations live under internal/ and are
// re-exported here as the supported surface.
package ginja

import (
	"net/http"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/cloud/s3http"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/innoengine"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// Core middleware types.
type (
	// Ginja is the disaster-recovery middleware instance.
	Ginja = core.Ginja
	// Params is the user-facing configuration (Batch, Safety, timeouts,
	// uploaders, compression, encryption, PITR retention).
	Params = core.Params
	// Stats is a snapshot of replication activity counters.
	Stats = core.Stats
	// VerifyResult reports a backup-verification run.
	VerifyResult = core.VerifyResult
	// RecoveryBreakdown is the phased RTO budget of the last Recover,
	// RecoverAt or Follower.Promote (Stats.LastRecovery).
	RecoveryBreakdown = core.RecoveryBreakdown
	// CloudView is Ginja's bookkeeping of the objects in the cloud.
	CloudView = core.CloudView
	// WALObjectInfo describes one WAL object in the cloud.
	WALObjectInfo = core.WALObjectInfo
	// DBObjectInfo describes one DB object (dump or checkpoint).
	DBObjectInfo = core.DBObjectInfo
)

// New creates a Ginja instance protecting the database files in localFS,
// replicating to store, understanding the engine's write pattern via proc.
// Follow with exactly one of Boot, Reboot or Recover.
var New = core.New

// DefaultParams returns the paper-flavoured defaults (B=100, S=1000,
// 5 uploaders, 20 MB object cap, 150 % dump threshold).
var DefaultParams = core.DefaultParams

// NoLossParams returns the synchronous-replication configuration
// (S = B = 1): zero data loss, lowest throughput.
var NoLossParams = core.NoLoss

// ErrNoDump is returned by Recover when the cloud holds no dump.
var ErrNoDump = core.ErrNoDump

// DefaultCostCeilingPerDay is the WAL-PUT spend ceiling the adaptive
// batch controller enforces when Params.CostCeilingPerDay is zero —
// the paper's one-dollar-per-month budget expressed per day.
const DefaultCostCeilingPerDay = core.DefaultCostCeilingPerDay

// DefaultMaxDeltaChain and DefaultDeltaCompactRatio bound the delta
// chain when Params.DeltaCheckpoints is on and the knobs are zero: the
// chain folds into a fresh full dump past this many deltas, or once its
// summed payload exceeds this fraction of the database.
const (
	DefaultMaxDeltaChain     = core.DefaultMaxDeltaChain
	DefaultDeltaCompactRatio = core.DefaultDeltaCompactRatio
)

// Version is the release version reported by the ginja_build_info metric.
const Version = core.Version

// ObjectFormatVersion is the cloud object wire-format generation, also a
// ginja_build_info label (see DESIGN.md for the compatibility contract).
const ObjectFormatVersion = core.ObjectFormatVersion

// Deterministic time. Params.Clock (and SimOptions.Clock) accept any
// Clock; nil means the wall clock. A SimClock runs the whole stack —
// TB/TS timers, retry backoff, checkpoint scheduling, simulated-cloud
// latency — in virtual time for deterministic simulation testing (see
// DESIGN.md §10 and internal/sim for the fault-schedule driver).
type (
	// Clock supplies every timer and timestamp Ginja takes.
	Clock = simclock.Clock
	// ClockTimer is the resettable timer a Clock hands out.
	ClockTimer = simclock.Timer
	// SimClock is the virtual clock: time advances only when every
	// goroutine of the simulation, its driver included, is parked.
	SimClock = simclock.SimClock
)

// RealClock returns the wall-clock Clock (the nil-Params.Clock default).
var RealClock = simclock.Real

// NewSimClock returns a virtual clock starting at a fixed epoch.
var NewSimClock = simclock.NewSim

// Observability. Set Params.Metrics to a *MetricsRegistry and Ginja
// streams per-stage pipeline latencies, queue-depth gauges, Safety
// blocked time, the ginja_rpo_seconds durability watermark and
// cloud-operation telemetry into it; expose it over HTTP with
// MetricsHandler (Prometheus /metrics, /healthz, /statusz, and the
// /tracez recent/slowest span buffer). Stats (above) stays the
// poll-style snapshot — including Stats.RPO and Stats.LastRecovery —
// and Stats.LastError lets health checks see pipeline failures without
// internal access.
type (
	// MetricsRegistry is a concurrency-safe registry of named counters,
	// gauges and bounded-memory streaming histograms.
	MetricsRegistry = obs.Registry
	// MetricLabels attaches dimensions to an instrument (e.g. op="put").
	MetricLabels = obs.Labels
	// MetricCounter is a monotonically increasing value.
	MetricCounter = obs.Counter
	// MetricGauge is a value that can go up and down (or be sampled from
	// a function at export time).
	MetricGauge = obs.Gauge
	// MetricHistogram is a fixed-bucket, log-scaled streaming histogram.
	MetricHistogram = obs.Histogram
	// MetricSnapshot is one instrument's state, as served by /statusz.
	MetricSnapshot = obs.MetricSnapshot
	// HealthStatus is the outcome of one registered health check.
	HealthStatus = obs.HealthStatus
	// InstrumentedStore wraps any ObjectStore with per-op latency, byte
	// and error telemetry plus a reachability health check.
	InstrumentedStore = obs.InstrumentedStore
	// Span is one completed pipeline or recovery operation in the /tracez
	// buffer (batch lifetimes, WAL PUTs, recovery phases).
	Span = obs.Span
	// SpanRing is the bounded recent + slowest-N span buffer behind
	// /tracez; Registry.Spans exposes a registry's ring.
	SpanRing = obs.SpanRing
)

// NewMetricsRegistry returns an empty metrics registry.
var NewMetricsRegistry = obs.NewRegistry

// InstrumentStore wraps a store with per-op telemetry recorded into reg
// under the given backend label, and registers a "store:<backend>"
// reachability check on /healthz.
var InstrumentStore = obs.InstrumentStore

// MetricsHandler serves /metrics (Prometheus text format), /healthz,
// /statusz and /tracez for a registry. status (may be nil) is sampled
// per /statusz request — pass func() any { return g.Stats() }.
func MetricsHandler(r *MetricsRegistry, status func() any) http.Handler {
	return obs.Handler(r, status)
}

// Object storage.
type (
	// ObjectStore is the PUT/GET/LIST/DELETE interface Ginja replicates to.
	ObjectStore = cloud.ObjectStore
	// ObjectInfo describes one stored object.
	ObjectInfo = cloud.ObjectInfo
	// PriceSheet prices cloud operations for cost accounting.
	PriceSheet = cloud.PriceSheet
	// MeteredStore wraps a store with operation metering and billing.
	MeteredStore = cloud.MeteredStore
	// SimOptions configures the simulated cloud (latency/fault model). The
	// store sleeps each operation's modelled latency in full on
	// SimOptions.Clock (nil: the wall clock); the zero Profile is an
	// instant store.
	SimOptions = cloudsim.Options
	// SimProfile is a network behaviour model for the simulated cloud.
	SimProfile = cloudsim.Profile
)

// ErrObjectNotFound is returned by Get/Delete for missing objects.
var ErrObjectNotFound = cloud.ErrNotFound

// NewMemStore returns an in-memory object store (tests, demos).
var NewMemStore = cloud.NewMemStore

// NewDiskStore returns an object store persisted in a local directory.
var NewDiskStore = cloud.NewDiskStore

// NewMeteredStore wraps a store with operation counters and a bill.
var NewMeteredStore = cloud.NewMeteredStore

// AmazonS3Prices returns the May-2017 S3 price sheet the paper uses.
var AmazonS3Prices = cloud.AmazonS3May2017

// NewS3Client returns an ObjectStore speaking to an s3http server (such
// as cmd/cloudsim) at baseURL.
var NewS3Client = s3http.NewClient

// NewS3ClientWithToken is NewS3Client with bearer-token authentication.
var NewS3ClientWithToken = s3http.NewClientWithToken

// NewS3Handler wraps an ObjectStore in an S3-style HTTP handler.
var NewS3Handler = s3http.NewHandler

// NewS3HandlerWithToken is NewS3Handler requiring a bearer token.
var NewS3HandlerWithToken = s3http.NewHandlerWithToken

// NewSimStore wraps a store with the simulated network behaviour
// (size-dependent latency, jitter, outages, transient failures).
var NewSimStore = cloudsim.New

// WANProfile models the paper's testbed network (Lisbon → S3 US East).
var WANProfile = cloudsim.WANProfile

// LANProfile models recovering inside the provider's region.
var LANProfile = cloudsim.LANProfile

// NewReplicatedStore combines several clouds with majority writes for
// provider-scale fault tolerance (paper §6).
var NewReplicatedStore = core.NewReplicatedStore

// NewObservedReplicatedStore is NewReplicatedStore with each provider
// wrapped in an InstrumentedStore ("replica-0", "replica-1", ...) so
// /metrics and /healthz report per-replica latency, errors and health.
var NewObservedReplicatedStore = core.NewObservedReplicatedStore

type (
	// ReplicatedStore is the multi-cloud store; run Repair after a
	// provider outage to restore full redundancy.
	ReplicatedStore = core.ReplicatedStore
	// RepairReport summarises one anti-entropy pass.
	RepairReport = core.RepairReport
)

// Warm standby. A Follower continuously tails the cloud bucket into a
// local replica (incremental LIST diffing, parallel prefetch, each poll
// applying the same plan as cold recovery), so that after a disaster
// Promote hands back a live Ginja in O(replication lag) instead of the
// O(database size) a cold Recover pays. Set Params.RetainFor (and
// RetainObjects) on the primary to keep superseded objects long enough
// for RecoverAt to hit any point in the retention window.
type (
	// Follower is the warm-standby replica tailing an ObjectStore.
	Follower = core.Follower
	// FollowerStats snapshots a Follower's tailing activity and lag.
	FollowerStats = core.FollowerStats
)

// NewFollower creates a warm standby replicating the bucket in store
// into localFS; Start begins tailing, Promote performs the disaster
// handoff.
var NewFollower = core.NewFollower

// Fleet mode. One process protects many tenant databases over shared
// resources: one bucket (per-tenant key prefixes), one bounded upload
// pool and one bounded fetch pool with a fairness scheduler (WAL PUTs
// are deadline-scheduled and never starved by bulk dump traffic; bulk
// traffic is per-tenant capped and aged so checkpoints always make
// progress), and one tick wheel multiplexing every tenant's timers.
// Admit adds a tenant (returning a fully wired *Ginja), Evict removes
// one; the marginal cost of an idle tenant is a few goroutines and a
// few tens of kilobytes (see `make bench-fleet`).
type (
	// Fleet multiplexes many Ginja instances over shared pools.
	Fleet = core.Fleet
	// FleetParams configures the shared store, pool sizes, fairness
	// knobs, metrics registry and clock.
	FleetParams = core.FleetParams
	// FleetStats snapshots fleet-wide scheduler and tenant state.
	FleetStats = core.FleetStats
)

// NewFleet creates an empty fleet over a shared ObjectStore.
var NewFleet = core.NewFleet

// ValidatePrefix reports whether a Params.Prefix (or tenant id) is
// well-formed: non-empty path segments of [A-Za-z0-9._-], no leading
// or trailing "/", no "." or ".." segments.
var ValidatePrefix = core.ValidatePrefix

// Fleet defaults, used when the corresponding FleetParams field is zero.
const (
	// DefaultFleetUploadSlots bounds concurrent PUT/DELETE ops fleet-wide.
	DefaultFleetUploadSlots = core.DefaultFleetUploadSlots
	// DefaultFleetFetchSlots bounds concurrent GET/LIST ops fleet-wide.
	DefaultFleetFetchSlots = core.DefaultFleetFetchSlots
	// DefaultFleetTenantCap bounds one tenant's in-flight bulk ops.
	DefaultFleetTenantCap = core.DefaultFleetTenantCap
	// DefaultFleetBulkAgingAfter is how long a queued bulk op waits
	// before it may take priority over fresher Safety traffic.
	DefaultFleetBulkAgingAfter = core.DefaultFleetBulkAgingAfter
)

// NewPrefixStore namespaces a store under a key prefix: every object
// the returned store reads or writes lives under prefix+"/". Ginja
// applies Params.Prefix internally; use this to inspect one tenant's
// slice of a shared bucket from the outside.
var NewPrefixStore = cloud.NewPrefixStore

// File system interposition.
type (
	// FS is the file-system surface database engines run on.
	FS = vfs.FS
	// File is a positional-I/O file handle.
	File = vfs.File
	// Observer receives intercepted file-system events.
	Observer = vfs.Observer
)

// NewOSFS returns an FS rooted at a host directory.
var NewOSFS = vfs.NewOSFS

// NewMemFS returns an in-memory FS (tests, demos, verification targets).
var NewMemFS = vfs.NewMemFS

// NewInterceptFS wraps an FS so every mutation is reported to an Observer.
var NewInterceptFS = vfs.NewInterceptFS

// Event processors (the only DBMS-specific part of Ginja).
type (
	// Processor classifies a database's writes into Table 1 events.
	Processor = dbevent.Processor
	// Event is one classified write.
	Event = dbevent.Event
)

// NewPGProcessor detects PostgreSQL's write pattern.
var NewPGProcessor = dbevent.NewPGProcessor

// NewInnoProcessor detects MySQL/InnoDB's write pattern.
var NewInnoProcessor = dbevent.NewInnoProcessor

// ProcessorForEngine returns the processor for "postgresql" or "mysql".
var ProcessorForEngine = dbevent.ForEngine

// Embedded database engine (the DBMS substrate of this reproduction).
type (
	// DB is the embedded transactional database.
	DB = minidb.DB
	// Txn is a read-your-writes transaction.
	Txn = minidb.Txn
	// DBOptions tunes a DB instance.
	DBOptions = minidb.Options
	// Engine is a DBMS file-layout personality.
	Engine = minidb.Engine
)

// OpenDB opens (or crash-recovers) a database whose files live on fsys.
// Open it on a Ginja's FS() to protect it.
var OpenDB = minidb.Open

// NewPostgresEngine returns the PostgreSQL-like personality (8 KiB WAL
// pages, 16 MiB pg_xlog segments, sharp checkpoints, pg_control).
func NewPostgresEngine() Engine { return pgengine.New() }

// NewMySQLEngine returns the MySQL/InnoDB-like personality (512-byte log
// blocks, circular ib_logfiles, fuzzy checkpoints).
func NewMySQLEngine() Engine { return innoengine.New() }

// EngineFor returns the engine personality for "postgresql" or "mysql",
// or nil for unknown names.
func EngineFor(name string) Engine {
	switch name {
	case "postgresql":
		return pgengine.New()
	case "mysql":
		return innoengine.New()
	default:
		return nil
	}
}

// Database errors.
var (
	// ErrKeyNotFound is returned by DB.Get / Txn.Get for missing keys.
	ErrKeyNotFound = minidb.ErrNotFound
	// ErrNoTable is returned for operations on unknown tables.
	ErrNoTable = minidb.ErrNoTable
	// ErrDBClosed is returned after DB.Close.
	ErrDBClosed = minidb.ErrClosed
)
