package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/obs"
)

func BenchmarkMergeWritesSamePage(b *testing.B) {
	// 100 rewrites of one 8 KiB page — the hot aggregation case.
	writes := make([]FileWrite, 100)
	for i := range writes {
		writes[i] = FileWrite{Path: "seg", Offset: 0, Data: bytes.Repeat([]byte{byte(i)}, 8192)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := MergeWrites(writes); len(got) != 1 {
			b.Fatalf("merged into %d", len(got))
		}
	}
}

func BenchmarkMergeWritesSequentialPages(b *testing.B) {
	writes := make([]FileWrite, 100)
	for i := range writes {
		writes[i] = FileWrite{Path: "seg", Offset: int64(i) * 8192, Data: make([]byte, 8192)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := MergeWrites(writes); len(got) != 1 {
			b.Fatalf("merged into %d", len(got))
		}
	}
}

// BenchmarkMergeWritesCheckpoint merges what finalizeLocked sees at a
// checkpoint end: random 8 KiB pages over 8 data files (1 % of the pages
// dirty), a tenth of them rewritten later in the same checkpoint. ns/write
// must stay about flat from 820 pages (one bulk_cycle checkpoint) to 8 200
// — the merge is O(n log n); rescanning a file's segment list per write
// took 30 µs per write at 820 and ten times that at 8 200 — and B/op must
// stay far below the payload (6.4 and 64 MiB): pages are re-sliced, not
// copied, except where neighbours are joined.
func BenchmarkMergeWritesCheckpoint(b *testing.B) {
	for _, pages := range []int{820, 8200} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			page := make([]byte, 8192)
			writes := make([]FileWrite, 0, pages+pages/10)
			for i := 0; i < pages; i++ {
				writes = append(writes, FileWrite{Path: fmt.Sprintf("base/1/%d", 16384+rng.Intn(8)),
					Offset: int64(rng.Intn(pages*100/8)) * 8192, Data: page})
			}
			for i := 0; i < pages/10; i++ {
				writes = append(writes, writes[rng.Intn(pages)])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := MergeWrites(writes); len(got) == 0 || len(got) > pages {
					b.Fatalf("merged into %d", len(got))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(writes)), "ns/write")
		})
	}
}

func BenchmarkEncodeDecodeWrites(b *testing.B) {
	writes := []FileWrite{{Path: "pg_xlog/000000010000000000000001", Offset: 16384, Data: make([]byte, 8192)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encoded := EncodeWrites(writes)
		if _, err := DecodeWrites(encoded); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineThroughput measures sustained commit-path submissions
// through the full pipeline (aggregation + sealing + upload to a memory
// store). The "instrumented" variants run with a live metrics registry;
// compare against the plain runs to measure observability overhead (the
// disabled path must stay within 5%).
func BenchmarkPipelineThroughput(b *testing.B) {
	for _, bc := range []struct {
		name    string
		metrics bool
	}{
		{"plain", false},
		{"instrumented", true},
	} {
		for _, batch := range []int{10, 100, 1000} {
			b.Run(fmt.Sprintf("%s/B=%d", bc.name, batch), func(b *testing.B) {
				p := DefaultParams()
				p.Batch = batch
				p.Safety = batch * 10
				p.BatchTimeout = 5 * time.Millisecond
				if bc.metrics {
					p.Metrics = obs.NewRegistry()
				}
				params, err := p.Validate()
				if err != nil {
					b.Fatal(err)
				}
				pipe := newPipeline(NewCloudView(), plainIO(cloud.NewMemStore(), params), params)
				pipe.start(0)
				defer pipe.drainAndStop(10 * time.Second)
				page := make([]byte, 8192)
				b.SetBytes(8192)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pipe.submit("pg_xlog/0001", int64(i%2048)*8192, page); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if !pipe.q.drain(30 * time.Second) {
					b.Fatal("drain")
				}
			})
		}
	}
}

// BenchmarkCommitPath measures the steady-state submit→upload hot path
// with small scattered commits — the workload the zero-allocation work
// targets. allocs/op is the acceptance number: the packed path must stay
// ≤ 2 allocs per commit (pooled submit copies, reused batch/plan scratch,
// pooled per-object write lists; what remains is the amortized per-object
// seal + store cost). The unpacked variant is the ablation baseline: its
// objects are capped at one payload, so each commit is its own object.
// Payloads are non-zero, as WAL records are: an all-zero one would ship
// as a zero fill. The zero-tail variant commits fresh 8 KiB pages, a
// record at the head and zeros after, so every write is cut into its
// record and a zero fill.
func BenchmarkCommitPath(b *testing.B) {
	const payloadBytes = 256
	for _, bc := range []struct {
		name      string
		maxObject int64 // 0: Validate fills in the default
		adaptive  bool
		zeroTail  int // zero bytes after the record
	}{
		{"packed", 0, false, 0},
		{"unpacked", payloadBytes, false, 0},
		// The adaptive controller must not cost the hot path anything:
		// observePut runs off the submit path and knob publication is one
		// amortized pointer store per tick.
		{"packed-adaptive", 0, true, 0},
		{"packed-zero-tail", 0, false, 8192 - payloadBytes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := DefaultParams()
			p.Batch = 50
			p.Safety = 1000
			p.BatchTimeout = 5 * time.Millisecond
			p.MaxObjectSize = bc.maxObject
			p.AdaptiveBatching = bc.adaptive
			params, err := p.Validate()
			if err != nil {
				b.Fatal(err)
			}
			pipe := newPipeline(NewCloudView(), plainIO(cloud.NewMemStore(), params), params)
			pipe.start(0)
			defer pipe.drainAndStop(10 * time.Second)
			payload := make([]byte, payloadBytes+bc.zeroTail)
			for i := range payloadBytes {
				payload[i] = byte(1 + i%255)
			}
			submit := func(i int) {
				if _, err := pipe.submit("pg_xlog/0001", int64(i%4096)*8192, payload); err != nil {
					b.Fatal(err)
				}
			}
			// Warm the pools and grow the reusable scratch to steady state
			// before measuring.
			for i := 0; i < 500; i++ {
				submit(i)
			}
			if !pipe.q.drain(10 * time.Second) {
				b.Fatal("warm-up drain")
			}
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit(i)
			}
			b.StopTimer()
			if !pipe.q.drain(30 * time.Second) {
				b.Fatal("drain")
			}
		})
	}
}

func BenchmarkCloudViewNextTs(b *testing.B) {
	v := NewCloudView()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v.NextWALTs()
		}
	})
}

// BenchmarkViewBuild measures LoadFromList — the LIST → cloudView step of
// Reboot and Recovery — on a WAL-heavy bucket: 10 000 WAL objects, 100
// unsplit checkpoints and one four-part dump.
func BenchmarkViewBuild(b *testing.B) {
	infos := []cloud.ObjectInfo{
		{Name: DBPartName(0, 0, Dump, 1000, 0, 0), Size: 1000},
		{Name: DBPartName(0, 0, Dump, 1000, 1, 0), Size: 1000},
		{Name: DBPartName(0, 0, Dump, 1000, 2, 0), Size: 1000},
		{Name: DBPartName(0, 0, Dump, 500, 3, 4), Size: 500},
	}
	for i := int64(1); i <= 100; i++ {
		infos = append(infos, cloud.ObjectInfo{Name: DBObjectName(i*100, 0, Checkpoint, 4096), Size: 4096})
	}
	for ts := int64(1); ts <= 10000; ts++ {
		infos = append(infos, cloud.ObjectInfo{
			Name: WALObjectName(ts, "pg_xlog/000000010000000000000001", ts*8192), Size: 8300})
	}
	v := NewCloudView()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.LoadFromList(infos); err != nil {
			b.Fatal(err)
		}
	}
	if len(v.WALObjects()) != 10000 || len(v.DBObjects()) != 101 {
		b.Fatalf("view holds %d WAL, %d DB objects", len(v.WALObjects()), len(v.DBObjects()))
	}
}
