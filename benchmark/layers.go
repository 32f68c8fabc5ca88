package main

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/sealer"
)

// cumulative reads every counter the per-layer table is built from, as
// running totals; the traced window's figures are the difference of two
// readings.
func cumulative(st *stack) values {
	v := values{
		"client.writes":  float64(st.client.writes.Load()),
		"client.ns":      float64(st.client.ns.Load()),
		"local.writes":   float64(st.tlocal.writes.Load()),
		"local.bytes":    float64(st.tlocal.bytes.Load()),
		"local.ns":       float64(st.tlocal.ns.Load()),
		"obs.ns":         float64(st.tobs.ns.Load()),
		"classify.calls": float64(st.tproc.calls.Load()),
		"classify.ns":    float64(st.tproc.ns.Load()),
		"classify.wal":   float64(st.tproc.walBytes.Load()),
		"put.count":      float64(st.store.putCount.Load()),
		"put.bytes":      float64(st.store.putBytes.Load()),
		"put.ns":         float64(st.store.putNs.Load()),
		"get.count":      float64(st.store.getCount.Load()),
		"get.bytes":      float64(st.store.getBytes.Load()),
		"get.ns":         float64(st.store.getNs.Load()),
		"list.count":     float64(st.store.listCount.Load()),
		"list.ns":        float64(st.store.listNs.Load()),
		"delete.count":   float64(st.store.deleteCount.Load()),
		"delete.ns":      float64(st.store.deleteNs.Load()),
		"store.errors":   float64(st.store.errors.Load()),
	}
	if st.http != nil {
		v["http.requests"] = float64(st.http.requests.Load())
		v["http.put.count"] = float64(st.http.putCount.Load())
		v["http.put.ns"] = float64(st.http.putNs.Load())
	}
	s := st.g.Stats()
	v["updates"] = float64(s.UpdatesObserved)
	v["batches"] = float64(s.Batches)
	v["wal.objects"] = float64(s.WALObjectsUploaded)
	v["wal.sealed"] = float64(s.WALBytesUploaded)
	v["wal.raw"] = float64(s.WALBytesRaw)
	v["retries"] = float64(s.UploadRetries)
	v["checkpoints"] = float64(s.Checkpoints)
	v["dumps"] = float64(s.Dumps)
	v["db.objects"] = float64(s.DBObjectsUploaded)
	v["db.bytes"] = float64(s.DBBytesUploaded)
	v["gc.wal"] = float64(s.WALObjectsDeleted)
	v["gc.db"] = float64(s.DBObjectsDeleted)
	v["blocked.s"] = s.BlockedTime.Seconds()
	v["gate.s"] = s.DumpGateBlockedTime.Seconds()
	for _, m := range st.reg.Snapshot() {
		switch m.Name {
		case "ginja_pipeline_stage_seconds":
			v["stage."+m.Labels["stage"]+".s"] = m.Sum
			v["stage."+m.Labels["stage"]+".n"] = float64(m.Count)
		case "ginja_checkpoint_build_seconds":
			v["ckpt.build.s"] += m.Sum
		case "ginja_checkpoint_upload_seconds":
			v["ckpt.upload.s"] += m.Sum
		case "ginja_db_seal_seconds":
			v["db.seal.s"] += m.Sum
		}
	}
	m := readMem()
	v["mem.mallocs"] = float64(m.Mallocs)
	v["mem.bytes"] = float64(m.TotalAlloc)
	v["mem.gcs"] = float64(m.NumGC)
	v["mem.pause.ns"] = float64(m.PauseTotalNs)
	return v
}

// layerProbe watches one traced window: counter readings at both ends, and
// a poller for what only exists as an instantaneous value (the live RPO
// every 10 ms; goroutines and heap in use every 100 ms).
type layerProbe struct {
	st    *stack
	start values
	stop  chan struct{}
	done  sync.WaitGroup

	rpoMs         []float64
	goroutinesMax int
	heapInuseMax  uint64
}

func startLayerProbe(st *stack) *layerProbe {
	p := &layerProbe{st: st, start: cumulative(st), stop: make(chan struct{})}
	st.store.resetPutLatency()
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			p.rpoMs = append(p.rpoMs, float64(st.g.RPO())/1e6)
			if i%10 == 0 {
				p.goroutinesMax = max(p.goroutinesMax, runtime.NumGoroutine())
				p.heapInuseMax = max(p.heapInuseMax, readMem().HeapInuse)
			}
		}
	}()
	return p
}

// finish stops the probe and fills the per-layer metrics of the commit and
// checkpoint paths. ps are the traced protected slices; refRate is the
// untraced reference's ops/s.
func (p *layerProbe) finish(b *bench, ps []sliceStat, refRate float64) {
	close(p.stop)
	p.done.Wait()
	st := p.st
	end := cumulative(st)
	d := func(k string) float64 { return end[k] - p.start[k] }
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var wall float64
	for _, s := range ps {
		wall += s.wall.Seconds()
	}
	v := b.vals
	writes := d("client.writes")

	v["vfs.writes"] = d("local.writes")
	v["vfs.bytes_written"] = d("local.bytes")
	v["vfs.intercept_self_ns_per_write"] = per(d("client.ns")-d("obs.ns")-d("local.ns"), writes)
	v["vfs.local_write_ns_per_write"] = per(d("local.ns"), d("local.writes"))

	v["dbevent.classify_calls"] = d("classify.calls")
	v["dbevent.classify_ns_per_call"] = per(d("classify.ns"), d("classify.calls"))

	v["core.on_write_self_ns_per_update"] = per(d("obs.ns")-d("classify.ns")-d("blocked.s")*1e9, writes)
	v["core.safety_blocked_s"] = d("blocked.s")
	v["core.safety_blocked_share"] = per(d("blocked.s"), wall)
	v["core.batches"] = d("batches")
	v["core.updates_per_batch"] = per(d("updates"), d("batches"))
	v["core.wal_objects"] = d("wal.objects")
	v["core.wal_raw_bytes"] = d("wal.raw")
	v["core.wal_sealed_bytes"] = d("wal.sealed")
	v["core.aggregation_ratio"] = per(d("wal.raw"), d("classify.wal"))
	v["core.upload_retries"] = d("retries")
	for _, stage := range []string{"queue_wait", "aggregate", "seal", "upload", "durable_wait"} {
		v["core.stage_"+stage+"_s"] = d("stage." + stage + ".s")
		v["core.stage_"+stage+"_n"] = d("stage." + stage + ".n")
	}
	sort.Float64s(p.rpoMs)
	if n := len(p.rpoMs); n > 0 {
		v["core.rpo_p50_ms"] = p.rpoMs[n/2]
		v["core.rpo_max_ms"] = p.rpoMs[n-1]
	}

	v["core.checkpoints"] = d("checkpoints")
	v["core.dumps"] = d("dumps")
	v["core.db_objects"] = d("db.objects")
	v["core.db_bytes_uploaded"] = d("db.bytes")
	v["core.dump_gate_blocked_s"] = d("gate.s")
	v["core.peak_stream_bytes"] = float64(st.g.Stats().PeakStreamBytes)
	v["core.gc_wal_deleted"] = d("gc.wal")
	v["core.gc_db_deleted"] = d("gc.db")
	v["core.ckpt_build_s"] = d("ckpt.build.s")
	v["core.ckpt_upload_s"] = d("ckpt.upload.s")
	v["core.db_seal_s"] = d("db.seal.s")

	v["cloud.put_count"] = d("put.count")
	v["cloud.put_bytes"] = d("put.bytes")
	v["cloud.put_busy_s"] = d("put.ns") / 1e9
	putLat := st.store.putLatency()
	v["cloud.put_p50_us"] = quantileNs(putLat, 0.50) / 1e3
	v["cloud.put_p99_us"] = quantileNs(putLat, 0.99) / 1e3
	v["cloud.put_inflight_max"] = float64(st.store.inflightMax.Load())
	v["cloud.delete_count"] = d("delete.count")
	v["cloud.delete_busy_s"] = d("delete.ns") / 1e9
	v["cloud.errors"] = d("store.errors")

	if st.http != nil {
		v["s3http.requests"] = d("http.requests")
		v["s3http.server_put_us_per_op"] = per(d("http.put.ns"), d("http.put.count")) / 1e3
		v["s3http.client_self_us_per_put"] = per(d("put.ns")-d("http.put.ns"), d("put.count")) / 1e3
	}

	v["process.allocs_per_op"] = per(d("mem.mallocs"), writes)
	v["process.alloc_bytes_per_op"] = per(d("mem.bytes"), writes)
	v["process.gc_cycles"] = d("mem.gcs")
	v["process.gc_pause_total_ms"] = d("mem.pause.ns") / 1e6
	v["process.goroutines_peak"] = float64(p.goroutinesMax)
	v["process.heap_inuse_peak_mb"] = float64(p.heapInuseMax) / (1 << 20)

	if refRate > 0 {
		v["harness.tracing_overhead_ratio"] = aggRate(ps) / refRate
	}
	b.counts["traced_client_writes"] = int64(writes)
}

// recoveryLayer fills the recovery rows from the last recovery's breakdown,
// the store's read-side counters, and the replays of the seamless layers
// (sealer, codec, CloudView) on what the traced run captured.
func recoveryLayer(b *bench, st *stack, bd *core.RecoveryBreakdown) {
	v := b.vals
	v["core.recovery_list_s"] = bd.List.Seconds()
	v["core.recovery_view_s"] = bd.ViewBuild.Seconds()
	v["core.recovery_fetch_s"] = bd.Fetch.Seconds()
	v["core.recovery_decode_s"] = bd.Decode.Seconds()
	v["core.recovery_apply_s"] = bd.Apply.Seconds()
	v["core.recovery_verify_s"] = bd.Verify.Seconds()
	v["core.recovery_objects"] = float64(bd.Objects)
	v["core.recovery_bytes"] = float64(bd.Bytes)
	v["cloud.get_count"] = float64(st.store.getCount.Load())
	v["cloud.get_bytes"] = float64(st.store.getBytes.Load())
	v["cloud.get_busy_s"] = float64(st.store.getNs.Load()) / 1e9
	v["cloud.list_count"] = float64(st.store.listCount.Load())
	v["cloud.list_busy_s"] = float64(st.store.listNs.Load()) / 1e9

	seal, err := sealer.New(sealer.Options{Compress: st.params.Compress, Encrypt: st.params.Encrypt, Password: st.params.Password})
	if err != nil {
		b.fail(1, "replay sealer: %v", err)
		return
	}
	if err := replay(b, st, seal); err != nil {
		b.fail(1, "replay: %v", err)
	}
}
