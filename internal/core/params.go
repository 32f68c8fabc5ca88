package core

import (
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/simclock"
)

// Default parameter values. Batch/Safety defaults follow the paper's
// recommended "B substantially lower than S" shape (§5.1); the object size
// cap and dump threshold are the paper's (§5.2 footnote, §5.3).
const (
	DefaultBatch          = 100
	DefaultSafety         = 1000
	DefaultBatchTimeout   = 10 * time.Second
	DefaultSafetyTimeout  = 60 * time.Second
	DefaultUploaders      = 5 // "five Uploader threads ... the best setup" (§8)
	DefaultMaxObjectSize  = 20 << 20
	DefaultDumpThreshold  = 1.5
	DefaultUploadRetries  = 8
	DefaultRetryBaseDelay = 50 * time.Millisecond
	DefaultFollowInterval = 1 * time.Second
	DefaultRetainObjects  = 4096
	// Delta-checkpoint bounds (BtrLog-style): the chain is folded into a
	// fresh full dump when it grows past DefaultMaxDeltaChain elements or
	// its summed payload exceeds DefaultDeltaCompactRatio of the local
	// database size — keeping recovery work bounded.
	DefaultMaxDeltaChain     = 64
	DefaultDeltaCompactRatio = 0.5
)

// Params is Ginja's user-facing configuration (§5.1): the Batch (B, TB)
// and Safety (S, TS) knobs plus operational tuning.
type Params struct {
	// Batch (B) is the maximum number of database updates included in
	// each cloud synchronization.
	Batch int
	// Safety (S) is the maximum number of database updates that can be
	// lost in a disaster; commits block beyond it.
	Safety int
	// BatchTimeout (TB) uploads a partial batch if it is non-empty and
	// this much time has elapsed since the last synchronization.
	BatchTimeout time.Duration
	// SafetyTimeout (TS) blocks commits if non-synchronized updates have
	// been pending for this long.
	SafetyTimeout time.Duration
	// Uploaders is the number of parallel upload threads.
	Uploaders int
	// CheckpointUploaders bounds the parallel PUTs used for the parts of
	// one dump/checkpoint DB object (at Boot, with the WAL objects, which
	// all land before any dump part is PUT), and the parallel DELETEs used
	// by garbage collection. 0 means "same as Uploaders". The cloudView only
	// learns about a DB object after every part is durable, so raising
	// this never weakens the recovery invariants.
	CheckpointUploaders int
	// RecoveryFetchers bounds the parallel GETs used to prefetch DB-object
	// parts and WAL objects during Recover/RecoverAt. Objects are still
	// applied strictly in (Ts, Gen) / consecutive-timestamp order; only
	// the downloads overlap. 0 means "same as Uploaders".
	RecoveryFetchers int
	// MaxObjectSize splits any larger object into parts (optimises upload
	// latency, §5.2 footnote), Boot's WAL segments included.
	MaxObjectSize int64
	// DumpThreshold triggers a new dump when the cloud DB objects plus the
	// open checkpoint, the ending one merged in, exceed this multiple of the
	// local database size (1.5 in the paper). It is not checked while a dump
	// or delta is in flight: the cloud total counts it only once durable.
	DumpThreshold float64
	// DeltaCheckpoints replaces most DumpThreshold-triggered full re-dumps
	// with delta objects: sparse copies of only the byte ranges dirtied
	// since the last chain element, tracked page-granular by the vfs
	// observer. Checkpoint bytes — and the stop-writes dump window — then
	// scale with write volume instead of database size. Recovery resolves
	// the chain (base dump + ordered deltas) back to the materialized
	// state; a background fold turns the chain into a fresh full dump when
	// it outgrows MaxDeltaChain or DeltaCompactRatio.
	DeltaCheckpoints bool
	// MaxDeltaChain bounds the number of delta objects hanging off one
	// base dump before the next DumpThreshold crossing is served by a full
	// fold dump instead (BtrLog-style bounded recovery work). 0 means
	// DefaultMaxDeltaChain. Only used with DeltaCheckpoints.
	MaxDeltaChain int
	// DeltaCompactRatio folds the chain early: when the chain's summed
	// payload plus the next delta would exceed this fraction of the local
	// database size, the next chain element is a full dump. 0 means
	// DefaultDeltaCompactRatio. Only used with DeltaCheckpoints.
	DeltaCompactRatio float64
	// UploadRetries bounds per-object retry attempts before Ginja
	// declares the backup broken (0 = retry forever).
	UploadRetries int
	// RetryBaseDelay is the initial exponential-backoff delay.
	RetryBaseDelay time.Duration
	// Compress/Encrypt/Password configure the object envelope (§5.4).
	Compress bool
	Encrypt  bool
	Password string
	// RetainFor is the point-in-time recovery window: objects superseded
	// by garbage collection (WAL covered by a DB object, DB objects older
	// than a dump, checkpoints a delta recaptured) stay in the cloud until
	// they have been superseded for this long, so RecoverAt(ts) can
	// rebuild the exact consistent prefix for any ts committed inside the
	// window. The window runs from when this instance found the object
	// superseded: an instance started on a bucket that already holds
	// superseded objects starts their window at start-up. 0 disables the
	// window: superseded objects are deleted by the landing that
	// supersedes them (those a restarted instance lists, at its first).
	RetainFor time.Duration
	// RetainObjects caps how many superseded objects the retention window
	// may hold (BtrLog-style bounded chain length: recovery work is
	// bounded even if RetainFor outpaces the trimmer). When the cap is
	// exceeded, the oldest-superseded objects are trimmed early. 0 means
	// DefaultRetainObjects. Only meaningful with RetainFor > 0.
	RetainObjects int
	// FollowInterval is the warm-standby poll cadence: a Follower LISTs
	// the bucket this often and applies whatever new objects completed.
	// 0 means DefaultFollowInterval. Only used by NewFollower.
	FollowInterval time.Duration
	// AdaptiveBatching replaces the static Batch/BatchTimeout knobs with
	// an online controller that fits the observed PUT latency-vs-size
	// curve and continuously re-solves for the (B, TB) minimizing
	// expected commit latency under CostCeilingPerDay. Batch then serves
	// as the initial value and BatchTimeout as the worst-case timeout cap;
	// Safety/SafetyTimeout semantics are unchanged and the effective batch
	// never exceeds Safety.
	AdaptiveBatching bool
	// CostCeilingPerDay is the adaptive controller's spend budget in
	// dollars per day, evaluated with the costmodel package against the
	// measured update rate and Prices. 0 means DefaultCostCeilingPerDay
	// (the paper's $1/month). Only used with AdaptiveBatching.
	CostCeilingPerDay float64
	// Prices is the cloud price sheet the controller budgets against.
	// The zero value means cloud.AmazonS3May2017().
	Prices cloud.PriceSheet
	// Logger receives structured operational events (uploads, garbage
	// collection, recovery progress, retries) including the per-batch
	// trace spans that follow a commit from FS interception to cloud ack.
	// nil disables logging.
	Logger *slog.Logger
	// Metrics receives live telemetry (per-stage pipeline latencies,
	// queue-depth gauges, cloud-operation counters) when non-nil; expose
	// it with obs.Handler. nil disables instrumentation at near-zero cost.
	Metrics *obs.Registry
	// Clock supplies every timer and timestamp Ginja takes: the Batch and
	// Safety timeouts, upload-retry backoff and checkpoint scheduling all
	// draw from it. nil means the wall clock; deterministic simulation
	// tests install a *simclock.SimClock to run those paths in virtual
	// time (see internal/sim), and Fleet installs a shared tick wheel so
	// thousands of tenants multiplex their timers onto one timer.
	Clock simclock.Clock
	// Prefix roots every cloud object name under this key prefix, so many
	// databases (fleet tenants) can share one bucket without their WAL/DB
	// namespaces colliding: object naming, LIST diffing, garbage
	// collection and recovery all operate inside the prefix and never
	// observe objects outside it. The prefix is validated — "", or
	// "/"-separated segments of [A-Za-z0-9._-] with no ".." and no leading
	// or trailing "/" — so one tenant's prefix can never alias another's
	// objects. "" (the default) keeps today's whole-bucket behaviour.
	Prefix string
}

// DefaultParams returns the paper-flavoured defaults (B=100, S=1000).
func DefaultParams() Params {
	return Params{
		Batch:          DefaultBatch,
		Safety:         DefaultSafety,
		BatchTimeout:   DefaultBatchTimeout,
		SafetyTimeout:  DefaultSafetyTimeout,
		Uploaders:      DefaultUploaders,
		MaxObjectSize:  DefaultMaxObjectSize,
		DumpThreshold:  DefaultDumpThreshold,
		UploadRetries:  DefaultUploadRetries,
		RetryBaseDelay: DefaultRetryBaseDelay,
	}
}

// Validate checks internal consistency and fills zero values with
// defaults, returning the normalised parameters.
func (p Params) Validate() (Params, error) {
	d := DefaultParams()
	if p.Batch == 0 {
		p.Batch = d.Batch
	}
	if p.Safety == 0 {
		p.Safety = d.Safety
	}
	if p.BatchTimeout == 0 {
		p.BatchTimeout = d.BatchTimeout
	}
	if p.SafetyTimeout == 0 {
		p.SafetyTimeout = d.SafetyTimeout
	}
	if p.Uploaders == 0 {
		p.Uploaders = d.Uploaders
	}
	if p.CheckpointUploaders == 0 {
		p.CheckpointUploaders = p.Uploaders
	}
	if p.RecoveryFetchers == 0 {
		p.RecoveryFetchers = p.Uploaders
	}
	if p.MaxObjectSize == 0 {
		p.MaxObjectSize = d.MaxObjectSize
	}
	if p.DumpThreshold == 0 {
		p.DumpThreshold = d.DumpThreshold
	}
	if p.MaxDeltaChain == 0 {
		p.MaxDeltaChain = DefaultMaxDeltaChain
	}
	if p.DeltaCompactRatio == 0 {
		p.DeltaCompactRatio = DefaultDeltaCompactRatio
	}
	if p.RetryBaseDelay == 0 {
		p.RetryBaseDelay = d.RetryBaseDelay
	}
	if p.RetainObjects == 0 {
		p.RetainObjects = DefaultRetainObjects
	}
	if p.FollowInterval == 0 {
		p.FollowInterval = DefaultFollowInterval
	}
	if p.CostCeilingPerDay == 0 {
		p.CostCeilingPerDay = DefaultCostCeilingPerDay
	}
	if p.Prices == (cloud.PriceSheet{}) {
		p.Prices = cloud.AmazonS3May2017()
	}
	if p.Batch < 1 {
		return p, fmt.Errorf("core: Batch must be ≥ 1, got %d", p.Batch)
	}
	if p.Safety < p.Batch {
		return p, fmt.Errorf("core: Safety (%d) must be ≥ Batch (%d)", p.Safety, p.Batch)
	}
	if p.Uploaders < 1 {
		return p, fmt.Errorf("core: Uploaders must be ≥ 1, got %d", p.Uploaders)
	}
	if p.CheckpointUploaders < 1 {
		return p, fmt.Errorf("core: CheckpointUploaders must be ≥ 1, got %d", p.CheckpointUploaders)
	}
	if p.RecoveryFetchers < 1 {
		return p, fmt.Errorf("core: RecoveryFetchers must be ≥ 1, got %d", p.RecoveryFetchers)
	}
	if p.DumpThreshold < 1 {
		return p, fmt.Errorf("core: DumpThreshold must be ≥ 1, got %v", p.DumpThreshold)
	}
	if p.MaxDeltaChain < 1 {
		return p, fmt.Errorf("core: MaxDeltaChain must be ≥ 1 (0 = default), got %d", p.MaxDeltaChain)
	}
	if p.DeltaCompactRatio < 0 {
		return p, fmt.Errorf("core: DeltaCompactRatio must be > 0 (0 = default), got %v", p.DeltaCompactRatio)
	}
	if p.Encrypt && p.Password == "" {
		return p, errors.New("core: Encrypt requires Password")
	}
	if p.RetainFor < 0 {
		return p, fmt.Errorf("core: RetainFor must be ≥ 0, got %v", p.RetainFor)
	}
	if p.RetainObjects < 1 {
		return p, fmt.Errorf("core: RetainObjects must be ≥ 1, got %d", p.RetainObjects)
	}
	if p.FollowInterval < 0 {
		return p, fmt.Errorf("core: FollowInterval must be ≥ 0 (0 = default), got %v", p.FollowInterval)
	}
	if p.CostCeilingPerDay < 0 {
		return p, fmt.Errorf("core: CostCeilingPerDay must be ≥ 0 (0 = default), got %v", p.CostCeilingPerDay)
	}
	if err := ValidatePrefix(p.Prefix); err != nil {
		return p, err
	}
	return p, nil
}

// ValidatePrefix checks a Params.Prefix: "" is valid (no prefixing);
// otherwise the prefix must be "/"-separated non-empty segments drawn
// from [A-Za-z0-9._-], with no ".." anywhere and no leading or trailing
// "/". The restrictions guarantee a prefix can never escape the bucket
// namespace (path traversal) or splice into another tenant's keys.
func ValidatePrefix(prefix string) error {
	if prefix == "" {
		return nil
	}
	if strings.Contains(prefix, "..") {
		return fmt.Errorf("core: Prefix %q must not contain %q", prefix, "..")
	}
	if strings.HasPrefix(prefix, "/") {
		return fmt.Errorf("core: Prefix %q must not start with /", prefix)
	}
	for _, r := range prefix {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '/', r == '-':
		default:
			return fmt.Errorf("core: Prefix %q contains %q (allowed: [A-Za-z0-9._/-])", prefix, r)
		}
	}
	for _, seg := range strings.Split(prefix, "/") {
		if seg == "" {
			return fmt.Errorf("core: Prefix %q has an empty path segment", prefix)
		}
	}
	return nil
}

// NoLoss returns the synchronous-replication configuration (S = B = 1,
// the paper's "No Loss" column in Figure 5).
func NoLoss() Params {
	p := DefaultParams()
	p.Batch = 1
	p.Safety = 1
	return p
}
