package main

import (
	"fmt"
	"math"
)

// metricDef is one row of the benchmark's metric catalogue. The catalogue is
// the single source of the names later changes quote ("metric X on workload
// Y"); the test file checks that BENCHMARK.json lists exactly these.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists what a user of Ginja sees that this machine can measure
// repeatably. Every workload reports every one of them (the driver gates each
// metric on each workload), so each is defined on all four.
//
// No absolute timing is here: the seed box's speed moves by tens of percent
// from minute to minute, and raw rates, latencies and CPU per update spread
// 12–37 % over ten runs, wider than the widest bound the contract allows.
// They are per-layer metrics (client.*, process.cpu_us_per_op,
// core.dump_mb_s, core.recovery_mb_s). What the clock contributes here is
// protected_ratio, whose two sides run interleaved and see the same machine.
// A bound is the issue's where three times the spread seen over ten seeds
// fits under it, else the next of 0.10 and 0.25 (the contract's cap) that
// does or comes closest (README, "Repeatability").
var endToEnd = []metricDef{
	// median time of one untimed set-up (build tree, New, Boot; tpcc adds its one Load)
	{"setup_s", "s", "lower", 0.25},
	// ops/s through g.FS() ÷ ops/s of the same client on the bare local FS,
	// interleaved slices (paper Fig. 5). The protected clock runs from the
	// first write until Flush returns true (bulk_cycle: until SyncCheckpoints
	// does; tpcc: until the terminals stop), all measured slices together.
	{"protected_ratio", "ratio", "higher", 0.25},
	// store PUTs (WAL + DB) per 1000 client writes
	{"puts_per_kupdate", "count", "lower", 0.10},
	// bytes PUT ÷ client writes
	{"cloud_bytes_per_update", "B", "lower", 0.05},
	// peak bytes held in the bucket during the measured rounds ÷ local DB bytes at their end
	{"bucket_bytes_per_db_byte", "ratio", "lower", 0.10},
	// process peak RSS (ru_maxrss) at the end of the measured rounds
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer lists the traced run's metrics, grouped by the repo's modules.
// A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// client: what the DBMS sees on the clock, tracing off (the traced run's
	// untraced reference rounds). Rate is client writes ÷ protected wall time;
	// latency is File.WriteAt of WAL writes (commits) through g.FS().
	{Name: "client.commit_ops_s", Unit: "updates/s", Better: "higher"},
	{Name: "client.commit_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.commit_p90_us", Unit: "us", Better: "lower"},
	{Name: "client.commit_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.commit_p999_us", Unit: "us", Better: "lower"},
	{Name: "client.commit_max_us", Unit: "us", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	// vfs
	{Name: "vfs.writes", Unit: "count", Better: "lower"},
	{Name: "vfs.bytes_written", Unit: "B", Better: "lower"},
	{Name: "vfs.intercept_self_ns_per_write", Unit: "ns", Better: "lower"},
	{Name: "vfs.local_write_ns_per_write", Unit: "ns", Better: "lower"},
	// dbevent
	{Name: "dbevent.classify_calls", Unit: "count", Better: "lower"},
	{Name: "dbevent.classify_ns_per_call", Unit: "ns", Better: "lower"},
	// core, commit path
	{Name: "core.on_write_self_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "core.safety_blocked_s", Unit: "s", Better: "lower"},
	{Name: "core.safety_blocked_share", Unit: "ratio", Better: "lower"},
	{Name: "core.batches", Unit: "count", Better: "lower"},
	{Name: "core.updates_per_batch", Unit: "count", Better: "higher"},
	{Name: "core.wal_objects", Unit: "count", Better: "lower"},
	{Name: "core.wal_raw_bytes", Unit: "B", Better: "lower"},
	{Name: "core.wal_sealed_bytes", Unit: "B", Better: "lower"},
	{Name: "core.aggregation_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.upload_retries", Unit: "count", Better: "lower"},
	{Name: "core.stage_queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "core.stage_queue_wait_n", Unit: "count", Better: "lower"},
	{Name: "core.stage_aggregate_s", Unit: "s", Better: "lower"},
	{Name: "core.stage_aggregate_n", Unit: "count", Better: "lower"},
	{Name: "core.stage_seal_s", Unit: "s", Better: "lower"},
	{Name: "core.stage_seal_n", Unit: "count", Better: "lower"},
	{Name: "core.stage_upload_s", Unit: "s", Better: "lower"},
	{Name: "core.stage_upload_n", Unit: "count", Better: "lower"},
	{Name: "core.stage_durable_wait_s", Unit: "s", Better: "lower"},
	{Name: "core.stage_durable_wait_n", Unit: "count", Better: "lower"},
	{Name: "core.rpo_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.rpo_max_ms", Unit: "ms", Better: "lower"},
	{Name: "core.merge_ns_per_write", Unit: "ns", Better: "lower"},
	{Name: "core.encode_ns_per_kib", Unit: "ns", Better: "lower"},
	{Name: "core.decode_ns_per_kib", Unit: "ns", Better: "lower"},
	// core, checkpoint path (dump_mb_s: local tree MiB ÷ median Boot time of the set-up repeats)
	{Name: "core.dump_mb_s", Unit: "MiB/s", Better: "higher"},
	{Name: "core.checkpoint_mb_s", Unit: "MiB/s", Better: "higher"},
	{Name: "core.checkpoints", Unit: "count", Better: "lower"},
	{Name: "core.dumps", Unit: "count", Better: "lower"},
	{Name: "core.db_objects", Unit: "count", Better: "lower"},
	{Name: "core.db_bytes_uploaded", Unit: "B", Better: "lower"},
	{Name: "core.dump_gate_blocked_s", Unit: "s", Better: "lower"},
	{Name: "core.peak_stream_bytes", Unit: "B", Better: "lower"},
	{Name: "core.gc_wal_deleted", Unit: "count", Better: "higher"},
	{Name: "core.gc_db_deleted", Unit: "count", Better: "higher"},
	{Name: "core.ckpt_build_s", Unit: "s", Better: "lower"},
	{Name: "core.ckpt_upload_s", Unit: "s", Better: "lower"},
	{Name: "core.db_seal_s", Unit: "s", Better: "lower"},
	// core, recovery (recovery_mb_s: restored MiB ÷ median RecoverAt time of
	// the check's recoveries; the rest is the last of them)
	{Name: "core.recovery_mb_s", Unit: "MiB/s", Better: "higher"},
	{Name: "core.recovery_list_s", Unit: "s", Better: "lower"},
	{Name: "core.recovery_view_s", Unit: "s", Better: "lower"},
	{Name: "core.recovery_fetch_s", Unit: "s", Better: "lower"},
	{Name: "core.recovery_decode_s", Unit: "s", Better: "lower"},
	{Name: "core.recovery_apply_s", Unit: "s", Better: "lower"},
	{Name: "core.recovery_verify_s", Unit: "s", Better: "lower"},
	{Name: "core.recovery_objects", Unit: "count", Better: "lower"},
	{Name: "core.recovery_bytes", Unit: "B", Better: "lower"},
	{Name: "core.view_build_ns_per_object", Unit: "ns", Better: "lower"},
	// sealer (replay of captured objects under the workload's own setting)
	{Name: "sealer.seal_mib_s", Unit: "MiB/s", Better: "higher"},
	{Name: "sealer.open_mib_s", Unit: "MiB/s", Better: "higher"},
	{Name: "sealer.seal_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "sealer.open_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "sealer.sealed_per_raw", Unit: "ratio", Better: "lower"},
	// cloud (store wrapper handed to core.New)
	{Name: "cloud.put_count", Unit: "count", Better: "lower"},
	{Name: "cloud.put_bytes", Unit: "B", Better: "lower"},
	{Name: "cloud.put_busy_s", Unit: "s", Better: "lower"},
	{Name: "cloud.put_p50_us", Unit: "us", Better: "lower"},
	{Name: "cloud.put_p99_us", Unit: "us", Better: "lower"},
	{Name: "cloud.put_inflight_max", Unit: "count", Better: "lower"},
	{Name: "cloud.get_count", Unit: "count", Better: "lower"},
	{Name: "cloud.get_bytes", Unit: "B", Better: "lower"},
	{Name: "cloud.get_busy_s", Unit: "s", Better: "lower"},
	{Name: "cloud.list_count", Unit: "count", Better: "lower"},
	{Name: "cloud.list_busy_s", Unit: "s", Better: "lower"},
	{Name: "cloud.delete_count", Unit: "count", Better: "lower"},
	{Name: "cloud.delete_busy_s", Unit: "s", Better: "lower"},
	{Name: "cloud.errors", Unit: "count", Better: "lower"},
	// s3http (sync_commit only)
	{Name: "s3http.server_put_us_per_op", Unit: "us", Better: "lower"},
	{Name: "s3http.client_self_us_per_put", Unit: "us", Better: "lower"},
	{Name: "s3http.requests", Unit: "count", Better: "lower"},
	// minidb (tpcc_protected only)
	{Name: "minidb.tx_s", Unit: "tx/s", Better: "higher"},
	{Name: "minidb.unprotected_tx_s", Unit: "tx/s", Better: "higher"},
	{Name: "minidb.load_s", Unit: "s", Better: "lower"},
	{Name: "minidb.reopen_after_recover_s", Unit: "s", Better: "lower"},
	// process (cpu_us_per_op: user+sys CPU over the untraced reference slices
	// ÷ client writes; the rest over the traced protected slices)
	{Name: "process.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "process.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "process.heap_inuse_peak_mb", Unit: "MiB", Better: "lower"},
	// harness
	{Name: "harness.tracing_overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "harness.generator_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "harness.failed_share", Unit: "ratio", Better: "lower"},
}

// values collects one run's metric values by name.
type values map[string]float64

// metricOut is the wire form of one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// export renders vals against a catalogue. End-to-end metrics must all be
// present, finite and non-zero (the driver divides by their median);
// per-layer metrics that a workload does not produce read 0.
func (v values) export(defs []metricDef, strict bool) (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		x, ok := v[d.Name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		if strict && (!ok || x == 0) {
			return nil, fmt.Errorf("end-to-end metric %s missing or zero", d.Name)
		}
		out[d.Name] = metricOut{Value: x, Unit: d.Unit}
	}
	return out, nil
}
