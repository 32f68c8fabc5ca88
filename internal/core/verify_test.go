package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// TestVerifyLeavesLiveViewAlone: Verify and RecoverAt on a started
// instance plan from a view of their own listing. Rebuilding the
// instance's view instead would rewind its WAL timestamp counter to the
// listing while a WAL PUT is still in flight: the next batch would reuse
// the held object's ts, and recovery, which keeps one WAL object per ts,
// would drop an acknowledged commit.
func TestVerifyLeavesLiveViewAlone(t *testing.T) {
	for _, name := range []string{"Verify", "RecoverAt"} {
		t.Run(name, func(t *testing.T) {
			r := newAbsorbRig(t, 4, func(p *Params) { p.Batch, p.Safety = 1, 16 })
			commit := func(n int) {
				t.Helper()
				if err := vfs.WriteAt(r.g.FS(), absorbWAL, int64(n)*absorbPage, bytes.Repeat([]byte{byte('A' + n)}, 100)); err != nil {
					t.Fatal(err)
				}
			}
			commit(1)
			if !r.g.Flush(time.Minute) {
				t.Fatal("commit 1: flush")
			}
			release := r.store.block(fmt.Sprintf("_%d", 2*absorbPage)) // commit 2's WAL object
			commit(2)
			if r.g.Flush(time.Second) || r.store.heldPuts() != 1 {
				t.Fatalf("commit 2 is not held in its PUT (%d held)", r.store.heldPuts())
			}
			last := r.g.view.LastWALTs()
			var err error
			if name == "Verify" {
				_, err = r.g.Verify(context.Background(), vfs.NewMemFS(), nil, nil)
			} else {
				err = r.g.RecoverAt(context.Background(), vfs.NewMemFS(), -1)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := r.g.view.LastWALTs(); got != last {
				t.Fatalf("%s moved the live LastWALTs from %d to %d", name, last, got)
			}
			simclock.Close(r.clk, release)
			commit(3)
			if !r.g.Flush(time.Minute) {
				t.Fatal("commit 3: flush")
			}
			log, err := vfs.ReadFile(r.recover(), absorbWAL)
			if err != nil {
				t.Fatal(err)
			}
			for n := 1; n <= 3; n++ {
				want := bytes.Repeat([]byte{byte('A' + n)}, 100)
				if off := n * absorbPage; len(log) < off+100 || !bytes.Equal(log[off:off+100], want) {
					t.Fatalf("recovery lost acknowledged commit %d", n)
				}
			}
		})
	}
}
