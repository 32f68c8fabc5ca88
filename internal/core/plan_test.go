package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestPlan pins the recovery order on fabricated views: which dump, which
// chain and checkpoints, which WAL run. TestLiveWalkExhaustive checks live
// against a page model on every small history; the property tests reach
// it through whole systems.
func TestPlan(t *testing.T) {
	dump := func(ts int64) DBObjectInfo { return DBObjectInfo{Ts: ts, Type: Dump} }
	ckpt := func(ts int64) DBObjectInfo { return DBObjectInfo{Ts: ts, Type: Checkpoint} }
	delta := func(ts, base int64) DBObjectInfo { return DBObjectInfo{Ts: ts, Type: Delta, BaseTs: base} }
	wals := func(ts ...int64) []WALObjectInfo {
		out := make([]WALObjectInfo, len(ts))
		for i, t := range ts {
			out[i] = WALObjectInfo{Ts: t, Filename: "pg_xlog/000000010000000000000001"}
		}
		return out
	}
	upTo12 := wals(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	for _, tc := range []struct {
		name string
		dbs  []DBObjectInfo
		wals []WALObjectInfo
		upTo int64
		want string // "" = ErrNoDump
	}{
		{"retained older dump is skipped", []DBObjectInfo{dump(0), ckpt(2), dump(5), ckpt(7)}, upTo12, -1, "D5 C7 | 8-12"},
		{"retained older dump serves an older ts", []DBObjectInfo{dump(0), ckpt(2), dump(5), ckpt(7)}, upTo12, 4, "D0 C2 | 3-4"},
		// X9 recaptures every range C8 dirtied, so C8 is history.
		{"delta based off the chain is left out",
			[]DBObjectInfo{dump(0), delta(2, 0), dump(4), delta(6, 2), delta(7, 4), ckpt(8), delta(9, 7)}, upTo12, -1, "D4 X7 X9 | 10-12"},
		{"upTo between chain elements keeps the checkpoints after the tip",
			[]DBObjectInfo{dump(0), ckpt(2), delta(3, 0), ckpt(5), delta(6, 3)}, upTo12, 5, "D0 X3 C5 |"},
		{"checkpoints before the newest chain element are left out",
			[]DBObjectInfo{dump(0), ckpt(2), delta(3, 0), ckpt(5), delta(6, 3)}, upTo12, -1, "D0 X3 X6 | 7-12"},
		{"upTo inside a delta chain", []DBObjectInfo{dump(0), delta(3, 0), delta(6, 3), delta(9, 6)}, upTo12, 7, "D0 X3 X6 | 7-7"},
		{"a WAL gap ends the run", []DBObjectInfo{dump(0), ckpt(3)}, wals(1, 2, 3, 4, 5, 7, 8), -1, "D0 C3 | 4-5"},
		{"the run stops at upTo", []DBObjectInfo{dump(0)}, upTo12, 4, "D0 | 1-4"},
		{"nothing past the newest DB object", []DBObjectInfo{dump(0), ckpt(12)}, upTo12, -1, "D0 C12 |"},
		{"no dump at or before upTo", []DBObjectInfo{ckpt(1), dump(5)}, upTo12, 3, ""},
		{"no dump at all", []DBObjectInfo{ckpt(1)}, upTo12, -1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, run, err := live(tc.dbs, tc.wals, tc.upTo)
			if tc.want == "" {
				if !errors.Is(err, ErrNoDump) {
					t.Fatalf("plan = %v, %v, %v; want ErrNoDump", db, run, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, d := range db {
				fmt.Fprintf(&b, "%c%d ", map[DBObjectType]byte{Dump: 'D', Checkpoint: 'C', Delta: 'X'}[d.Type], d.Ts)
			}
			b.WriteString("|")
			if len(run) > 0 {
				fmt.Fprintf(&b, " %d-%d", run[0].Ts, run[len(run)-1].Ts)
			}
			if got := b.String(); got != tc.want {
				t.Fatalf("plan = %q, want %q", got, tc.want)
			}
		})
	}
}
