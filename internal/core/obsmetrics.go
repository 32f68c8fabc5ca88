package core

import (
	"time"

	"github.com/ginja-dr/ginja/internal/obs"
)

// Metric names exported when Params.Metrics is set. DESIGN.md maps them
// to the paper's Table 3/4 quantities; README.md carries the catalogue.
const (
	metricUpdates        = "ginja_updates_total"
	metricBatches        = "ginja_batches_total"
	metricWALObjects     = "ginja_wal_objects_uploaded_total"
	metricWALBytes       = "ginja_wal_bytes_uploaded_total"
	metricWALBytesRaw    = "ginja_wal_bytes_raw_total"
	metricRetries        = "ginja_upload_retries_total"
	metricBlockedSeconds = "ginja_safety_blocked_seconds_total"
	metricBlocks         = "ginja_safety_blocks_total"
	metricStageSeconds   = "ginja_pipeline_stage_seconds"
	metricBatchSeconds   = "ginja_commit_batch_seconds"
	metricObjectBytes    = "ginja_wal_object_bytes"
	metricQueueDepth     = "ginja_commit_queue_depth"
	metricUploadChDepth  = "ginja_upload_channel_depth"
	metricWritesPerObj   = "ginja_wal_writes_per_object"
	metricPutsPerBatch   = "ginja_wal_puts_per_batch"

	metricCheckpoints    = "ginja_checkpoints_total"
	metricCkptAbsorbed   = "ginja_checkpoints_absorbed_total"
	metricDBObjects      = "ginja_db_objects_uploaded_total"
	metricDBBytes        = "ginja_db_bytes_uploaded_total"
	metricGCDeleted      = "ginja_gc_deleted_total"
	metricCkptBuild      = "ginja_checkpoint_build_seconds"
	metricCkptUpload     = "ginja_checkpoint_upload_seconds"
	metricCkptQueueLen   = "ginja_checkpoint_queue_depth"
	metricCkptQueueBytes = "ginja_checkpoint_queue_bytes"
	metricStreamBytes    = "ginja_db_stream_inflight_bytes"
	metricDBSeal         = "ginja_db_seal_seconds"

	metricCloudInflight = "ginja_cloud_inflight_requests"
	metricDBPartPut     = "ginja_db_part_put_seconds"
	metricRecoveryFetch = "ginja_recovery_fetch_seconds"

	// Delta-checkpoint telemetry: durable checkpoint bytes broken down by
	// object kind (base dumps vs. deltas vs. incremental checkpoints), the
	// live delta-chain length, and the time DBMS writes actually spent
	// blocked on the (now path-precise) dump gate.
	metricCkptBytes     = "ginja_checkpoint_bytes_total"
	metricDeltaChainLen = "ginja_delta_chain_length"
	metricGateBlocked   = "ginja_dump_gate_blocked_seconds"

	// Durability telemetry: the live RPO watermark (age of the oldest
	// update not yet acked by the cloud), the realized data-loss window of
	// each released update, the configured Safety bounds beside them, and
	// the per-phase RTO breakdown of the most recent recovery.
	metricRPOSeconds    = "ginja_rpo_seconds"
	metricLossWindow    = "ginja_data_loss_window_seconds"
	metricSafetyLimit   = "ginja_safety_limit_updates"
	metricSafetyTimeout = "ginja_safety_timeout_seconds"
	metricRecoveryPhase = "ginja_recovery_phase_seconds"

	// Warm-standby telemetry: how far the follower's replica trails the
	// bucket, and the applied-WAL-timestamp watermark it has reached.
	metricFollowerLag       = "ginja_follower_lag_seconds"
	metricFollowerAppliedTs = "ginja_follower_applied_ts"

	// Adaptive-batching telemetry: the effective knobs the commit path is
	// running, the controller's fitted PUT latency-vs-size curve, and the
	// size-bucketed PUT latency histogram that exposes the raw curve the
	// fit is drawn from.
	metricEffectiveBatch        = "ginja_effective_batch"
	metricEffectiveBatchTimeout = "ginja_effective_batch_timeout_seconds"
	metricFitBase               = "ginja_put_latency_fit_base_seconds"
	metricFitPerByte            = "ginja_put_latency_fit_per_byte_seconds"
	metricWALPutSeconds         = "ginja_wal_put_seconds"

	// Fleet telemetry: tenant census, shared-pool scheduler behaviour
	// (queue wait by class, live occupancy), and the starvation proof —
	// Safety-class operations that out-waited their TS deadline in the
	// scheduler queue. A fleet with a dumping antagonist and zero deadline
	// misses is a fleet whose fairness policy is working.
	metricFleetTenants    = "ginja_fleet_tenants"
	metricFleetSchedWait  = "ginja_fleet_sched_wait_seconds"
	metricFleetInflight   = "ginja_fleet_inflight_ops"
	metricFleetStarvation = "ginja_fleet_safety_deadline_misses_total"
	metricFleetOps        = "ginja_fleet_ops_total"
	metricFleetAdmitted   = "ginja_fleet_admitted_total"
	metricFleetEvicted    = "ginja_fleet_evicted_total"
)

// walPutSizeClasses label the size-bucketed WAL PUT latency histogram:
// each sealed object's PUT duration is observed under its size class, so
// /metrics exposes latency-vs-size — the same curve the adaptive
// controller fits online.
var walPutSizeClasses = [4]string{"lt16k", "lt256k", "lt4m", "ge4m"}

// walPutSizeClass maps a sealed object size to its class index.
func walPutSizeClass(sealedBytes int) int {
	switch {
	case sealedBytes < 16<<10:
		return 0
	case sealedBytes < 256<<10:
		return 1
	case sealedBytes < 4<<20:
		return 2
	default:
		return 3
	}
}

// pipelineMetrics bundles the commit-path instruments. A nil
// *pipelineMetrics means observability is disabled; every call site
// guards with a nil check so the disabled cost is one predictable branch.
type pipelineMetrics struct {
	updates        *obs.Counter
	batches        *obs.Counter
	walObjects     *obs.Counter
	walBytes       *obs.Counter
	rawBytes       *obs.Counter
	blockedSeconds *obs.Counter
	blocks         *obs.Counter

	queueWait   *obs.Histogram // submit → aggregator pickup, per update
	aggregate   *obs.Histogram // merge+split+stamp, per batch
	seal        *obs.Histogram // per object
	upload      *obs.Histogram // per object, retries included
	durableWait *obs.Histogram // aggregator handoff → unlocker release, per batch
	batchTotal  *obs.Histogram // oldest submit → unlocker release, per batch
	objectBytes *obs.Histogram // sealed WAL object sizes

	writesPerObject *obs.Histogram // writes packed into each WAL object
	putsPerBatch    *obs.Histogram // WAL objects (PUTs) minted per batch

	lossWindow *obs.Histogram // realized data-loss window per released update

	putBySize [len(walPutSizeClasses)]*obs.Histogram // PUT latency by sealed-size class
}

// observeWALPut records one WAL PUT duration under its sealed-size class.
func (m *pipelineMetrics) observeWALPut(sealedBytes int, d time.Duration) {
	m.putBySize[walPutSizeClass(sealedBytes)].ObserveDuration(d)
}

// countBuckets returns power-of-two boundaries suited to small counts
// (writes per object, PUTs per batch): 1, 2, 4, … 1024.
func countBuckets() []float64 {
	b := make([]float64, 0, 11)
	for v := float64(1); v <= 1024; v *= 2 {
		b = append(b, v)
	}
	return b
}

func newPipelineMetrics(reg *obs.Registry) *pipelineMetrics {
	if reg == nil {
		return nil
	}
	stage := func(name string) *obs.Histogram {
		return reg.Histogram(metricStageSeconds,
			"Commit-pipeline per-stage latency in seconds (submit → aggregate → seal → upload → ack).",
			obs.Labels{"stage": name}, nil)
	}
	var putBySize [len(walPutSizeClasses)]*obs.Histogram
	for i, cls := range walPutSizeClasses {
		putBySize[i] = reg.Histogram(metricWALPutSeconds,
			"WAL object PUT duration in seconds by sealed-size class — the latency-vs-size curve the adaptive controller fits.",
			obs.Labels{"size": cls}, nil)
	}
	return &pipelineMetrics{
		putBySize:      putBySize,
		updates:        reg.Counter(metricUpdates, "Intercepted WAL updates (database commits).", nil),
		batches:        reg.Counter(metricBatches, "Cloud synchronizations performed (paper Table 3 batches).", nil),
		walObjects:     reg.Counter(metricWALObjects, "WAL objects uploaded (paper Table 3 #PUTs, commit path).", nil),
		walBytes:       reg.Counter(metricWALBytes, "Sealed WAL bytes uploaded.", nil),
		rawBytes:       reg.Counter(metricWALBytesRaw, "Pre-seal WAL payload bytes (compression input).", nil),
		blockedSeconds: reg.Counter(metricBlockedSeconds, "Cumulative seconds DBMS commits spent blocked on the Safety contract.", nil),
		blocks:         reg.Counter(metricBlocks, "Commits that blocked on the Safety contract at least once.", nil),
		queueWait:      stage("queue_wait"),
		aggregate:      stage("aggregate"),
		seal:           stage("seal"),
		upload:         stage("upload"),
		durableWait:    stage("durable_wait"),
		batchTotal: reg.Histogram(metricBatchSeconds,
			"End-to-end commit batch latency: oldest submit to durable release.", nil, nil),
		objectBytes: reg.Histogram(metricObjectBytes,
			"Sealed WAL object sizes in bytes (paper Table 3 object size).", nil, obs.SizeBuckets()),
		writesPerObject: reg.Histogram(metricWritesPerObj,
			"WAL writes packed into each uploaded object (1 = unpacked).", nil, countBuckets()),
		putsPerBatch: reg.Histogram(metricPutsPerBatch,
			"WAL objects (cloud PUTs) minted per Aggregator batch.", nil, countBuckets()),
		lossWindow: reg.Histogram(metricLossWindow,
			"Realized data-loss window per update: enqueue to cloud acknowledgement in seconds. "+
				"Had a disaster struck while the update was pending, this is how stale the restored copy would have been.",
			nil, nil),
	}
}

// checkpointMetrics bundles the checkpoint-path instruments; nil when
// observability is disabled.
type checkpointMetrics struct {
	landed     map[DBObjectType]landedMetrics
	absorbed   map[DBObjectType]*obs.Counter // by the carrier's type
	dbObjects  *obs.Counter
	dbBytes    *obs.Counter
	walDeleted *obs.Counter
	dbDeleted  *obs.Counter

	build       *obs.Histogram // dump plan construction duration
	partPut     *obs.Histogram // per-part DB PUT, retries included
	sealPart    *obs.Histogram // per-part seal stage (streamed data path)
	gateBlocked *obs.Histogram // per-write dump-gate blocked duration
}

// landedMetrics are the instruments one object type moves when it lands.
type landedMetrics struct {
	objects, bytes *obs.Counter
	upload         *obs.Histogram
}

func newCheckpointMetrics(reg *obs.Registry) *checkpointMetrics {
	if reg == nil {
		return nil
	}
	absorbed := make(map[DBObjectType]*obs.Counter)
	landed := make(map[DBObjectType]landedMetrics)
	// Durable checkpoint-path bytes are labelled by object kind: base full
	// dumps, delta chain elements, incremental checkpoints.
	for typ, kind := range map[DBObjectType]string{Checkpoint: "checkpoint", Dump: "base", Delta: "delta"} {
		absorbed[typ] = reg.Counter(metricCkptAbsorbed, "Checkpoints shipped inside a later object, by its type.", obs.Labels{"into": string(typ)})
		landed[typ] = landedMetrics{
			objects: reg.Counter(metricCheckpoints, "DB objects uploaded by type.", obs.Labels{"type": string(typ)}),
			bytes:   reg.Counter(metricCkptBytes, "Durable checkpoint-path bytes by object kind.", obs.Labels{"kind": kind}),
			upload: reg.Histogram(metricCkptUpload,
				"DB object seal+upload duration in seconds by type.", obs.Labels{"type": string(typ)}, nil),
		}
	}
	return &checkpointMetrics{
		landed:     landed,
		absorbed:   absorbed,
		dbObjects:  reg.Counter(metricDBObjects, "DB object parts uploaded (checkpoint path PUTs).", nil),
		dbBytes:    reg.Counter(metricDBBytes, "Sealed DB bytes uploaded.", nil),
		walDeleted: reg.Counter(metricGCDeleted, "Objects removed by garbage collection.", obs.Labels{"kind": "wal"}),
		dbDeleted:  reg.Counter(metricGCDeleted, "Objects removed by garbage collection.", obs.Labels{"kind": "db"}),
		build: reg.Histogram(metricCkptBuild,
			"Full-dump construction duration in seconds.", nil, nil),
		partPut: reg.Histogram(metricDBPartPut,
			"Per-part DB object PUT duration in seconds, retries included.", nil, nil),
		sealPart: reg.Histogram(metricDBSeal,
			"Per-part compress+seal duration on the streamed DB data path in seconds.", nil, nil),
		gateBlocked: reg.Histogram(metricGateBlocked,
			"Duration DBMS writes spent blocked on the stop-writes dump gate, per blocked write.", nil, nil),
	}
}
