package main

import (
	"context"
	"errors"
	"time"

	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/sealer"
)

// timeLoop calls fn over and over for at least atLeast and returns the calls
// made, the wall time, and the heap allocations per call.
func timeLoop(atLeast time.Duration, fn func() error) (calls int, wall time.Duration, allocsPerCall float64, err error) {
	m0 := readMem()
	t0 := time.Now()
	for calls == 0 || wall < atLeast {
		if err = fn(); err != nil {
			return
		}
		calls++
		wall = time.Since(t0)
	}
	allocsPerCall = float64(readMem().Mallocs-m0.Mallocs) / float64(calls)
	return
}

// replay measures the layers that have no seam to wrap — sealer, the
// write-list codec, CloudView — by calling their public functions on what
// the traced run saw: the sealed objects sampled at the store wrapper (so
// the size mix and the sealer setting are the workload's own) and the final
// bucket listing.
func replay(b *bench, st *stack, seal *sealer.Sealer) error {
	st.store.mu.Lock()
	sealed := st.store.captured
	st.store.mu.Unlock()
	if len(sealed) == 0 {
		return errors.New("no sealed objects captured")
	}
	v := b.vals
	// Each replayed function runs for 15 ms per second of run length.
	atLeast := time.Duration(b.cfg.Seconds * 15 * float64(time.Millisecond))
	var raws [][]byte
	var rawBytes, sealedBytes float64
	for _, s := range sealed {
		raw, err := seal.Open(s)
		if err != nil {
			return err
		}
		raws = append(raws, raw)
		rawBytes += float64(len(raw))
		sealedBytes += float64(len(s))
	}
	n := float64(len(sealed))
	mib := rawBytes / (1 << 20)
	v["sealer.sealed_per_raw"] = sealedBytes / rawBytes

	calls, wall, allocs, err := timeLoop(atLeast, func() error {
		for _, s := range sealed {
			if _, err := seal.Open(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["sealer.open_mib_s"] = mib * float64(calls) / wall.Seconds()
	v["sealer.open_allocs_per_op"] = allocs / n

	calls, wall, allocs, err = timeLoop(atLeast, func() error {
		for _, r := range raws {
			if _, err := seal.Seal(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["sealer.seal_mib_s"] = mib * float64(calls) / wall.Seconds()
	v["sealer.seal_allocs_per_op"] = allocs / n

	var lists [][]core.FileWrite
	var nWrites float64
	calls, wall, _, err = timeLoop(atLeast, func() error {
		lists = lists[:0]
		for _, r := range raws {
			ws, err := core.DecodeWrites(r)
			if err != nil {
				return err
			}
			lists = append(lists, ws)
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["core.decode_ns_per_kib"] = float64(wall.Nanoseconds()) / float64(calls) / (rawBytes / 1024)
	for _, ws := range lists {
		nWrites += float64(len(ws))
	}

	var scratch []byte
	calls, wall, _, _ = timeLoop(atLeast, func() error {
		for _, ws := range lists {
			scratch = core.EncodeWritesInto(scratch[:0], ws)
		}
		return nil
	})
	v["core.encode_ns_per_kib"] = float64(wall.Nanoseconds()) / float64(calls) / (rawBytes / 1024)

	calls, wall, _, _ = timeLoop(atLeast, func() error {
		for _, ws := range lists {
			core.MergeWrites(ws)
		}
		return nil
	})
	v["core.merge_ns_per_write"] = float64(wall.Nanoseconds()) / float64(calls) / nWrites

	infos, err := st.store.inner.List(context.Background(), "")
	if err != nil {
		return err
	}
	if len(infos) > 0 {
		calls, wall, _, err = timeLoop(atLeast, func() error { return core.NewCloudView().LoadFromList(infos) })
		if err != nil {
			return err
		}
		v["core.view_build_ns_per_object"] = float64(wall.Nanoseconds()) / float64(calls) / float64(len(infos))
	}
	b.counts["replayed_objects"] = int64(len(sealed))
	return nil
}
