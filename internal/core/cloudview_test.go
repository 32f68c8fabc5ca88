package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
)

func TestCloudViewTimestampsStartAtOne(t *testing.T) {
	v := NewCloudView()
	if ts := v.NextWALTs(); ts != 1 {
		t.Fatalf("first NextWALTs = %d, want 1 (0 is reserved for the boot dump)", ts)
	}
	if ts := v.NextWALTs(); ts != 2 {
		t.Fatalf("second NextWALTs = %d, want 2", ts)
	}
	if last := v.LastWALTs(); last != 2 {
		t.Fatalf("LastWALTs = %d, want 2", last)
	}
}

func TestCloudViewAddDelete(t *testing.T) {
	v := NewCloudView()
	v.AddWAL(WALObjectInfo{Ts: 1, Filename: "seg", Offset: 0, Size: 100})
	v.AddWAL(WALObjectInfo{Ts: 2, Filename: "seg", Offset: 8192, Size: 200})
	v.AddDB(DBObjectInfo{Ts: 0, Type: Dump, Size: 1000})
	v.AddDB(DBObjectInfo{Ts: 2, Type: Checkpoint, Size: 500})

	if got := v.TotalDBSize(); got != 1500 {
		t.Fatalf("TotalDBSize = %d, want 1500", got)
	}
	if wal := v.WALObjects(); len(wal) != 2 || wal[0].Ts != 1 || wal[1].Ts != 2 {
		t.Fatalf("WALObjects = %+v", wal)
	}
	v.DeleteWAL(1)
	if wal := v.WALObjects(); len(wal) != 1 || wal[0].Ts != 2 {
		t.Fatalf("after delete, WALObjects = %+v", wal)
	}
	v.DeleteDB(0, 0)
	if got := v.TotalDBSize(); got != 500 {
		t.Fatalf("TotalDBSize after delete = %d, want 500", got)
	}
}

func TestCloudViewCounterAdvancesPastKnownObjects(t *testing.T) {
	v := NewCloudView()
	v.AddWAL(WALObjectInfo{Ts: 41, Filename: "seg", Offset: 0})
	if ts := v.NextWALTs(); ts != 42 {
		t.Fatalf("NextWALTs after AddWAL(41) = %d, want 42", ts)
	}
}

func TestCloudViewLoadFromList(t *testing.T) {
	v := NewCloudView()
	infos := []cloud.ObjectInfo{
		{Name: "WAL/3_pg_xlog/000000010000000000000000_8192", Size: 100},
		{Name: "WAL/1_pg_xlog/000000010000000000000000_0", Size: 100},
		{Name: "DB/0_dump_900", Size: 900},
		{Name: "DB/2_checkpoint_50", Size: 50},
	}
	if err := v.LoadFromList(infos); err != nil {
		t.Fatal(err)
	}
	if wal := v.WALObjects(); len(wal) != 2 || wal[0].Ts != 1 || wal[1].Ts != 3 {
		t.Fatalf("WALObjects = %+v", wal)
	}
	if db := v.DBObjects(); len(db) != 2 {
		t.Fatalf("DBObjects = %+v", db)
	}
	if got := v.TotalDBSize(); got != 950 {
		t.Fatalf("TotalDBSize = %d", got)
	}
	if ts := v.NextWALTs(); ts != 4 {
		t.Fatalf("NextWALTs after load = %d, want 4", ts)
	}
}

func TestCloudViewLoadFromListParts(t *testing.T) {
	v := NewCloudView()
	infos := []cloud.ObjectInfo{
		{Name: "DB/7_dump_1000.s1", Size: 1000},
		{Name: "DB/7_dump_1000.s2.n3", Size: 1000},
		{Name: "DB/7_dump_1000.s0", Size: 1000},
	}
	if err := v.LoadFromList(infos); err != nil {
		t.Fatal(err)
	}
	db := v.DBObjects()
	if len(db) != 1 || len(db[0].PartSizes) != 3 || db[0].Size != 3000 {
		t.Fatalf("DBObjects = %+v", db)
	}
	names := db[0].PartNames()
	if len(names) != 3 || names[0] != "DB/7_dump_1000.s0" || names[2] != "DB/7_dump_1000.s2.n3" {
		t.Fatalf("PartNames = %v", names)
	}
	// Size must be counted once, not per part.
	if got := v.TotalDBSize(); got != 3000 {
		t.Fatalf("TotalDBSize = %d, want 3000", got)
	}
}

func TestCloudViewLoadFromListRejectsForeignObjects(t *testing.T) {
	v := NewCloudView()
	err := v.LoadFromList([]cloud.ObjectInfo{{Name: "random-junk"}})
	if err == nil {
		t.Fatal("foreign object accepted")
	}
}

func TestCloudViewConcurrent(t *testing.T) {
	v := NewCloudView()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ts := v.NextWALTs()
				v.AddWAL(WALObjectInfo{Ts: ts, Filename: "seg", Offset: 0})
			}
		}()
	}
	wg.Wait()
	if got := len(v.WALObjects()); got != 1600 {
		t.Fatalf("WALObjects = %d, want 1600", got)
	}
	if last := v.LastWALTs(); last != 1600 {
		t.Fatalf("LastWALTs = %d, want 1600 (no duplicate timestamps)", last)
	}
}

// TestCloudViewSupersede is the garbage-collection rule on whole bucket
// histories: a DB object supersedes the WAL objects with ts ≤ its own, a
// dump every older DB object, a delta the checkpoints since its base. The
// superseded objects are stamped and leave TotalDBSize; a view rebuilt
// from the same listing stamps exactly what the live one did.
func TestCloudViewSupersede(t *testing.T) {
	dump := func(ts int64, gen int) DBObjectInfo { return DBObjectInfo{Ts: ts, Gen: gen, Type: Dump, Size: 1000} }
	ckpt := func(ts int64, gen int) DBObjectInfo {
		return DBObjectInfo{Ts: ts, Gen: gen, Type: Checkpoint, Size: 100}
	}
	delta := func(ts int64, base DBObjectInfo) DBObjectInfo {
		return DBObjectInfo{Ts: ts, Type: Delta, Size: 10, BaseTs: base.Ts, BaseGen: base.Gen}
	}
	for _, tc := range []struct {
		name    string
		wal     int64 // WAL objects 1..wal
		db      []DBObjectInfo
		wantWAL []int64 // stamped
		wantDB  []dbKey
	}{
		{name: "wal only", wal: 3},
		{name: "boot", wal: 3, db: []DBObjectInfo{dump(0, 0)}},
		{name: "checkpoints", wal: 6, db: []DBObjectInfo{dump(0, 0), ckpt(2, 0), ckpt(4, 0), ckpt(4, 1)},
			wantWAL: []int64{1, 2, 3, 4}},
		{name: "dump", wal: 6, db: []DBObjectInfo{dump(0, 0), ckpt(2, 0), dump(2, 1), ckpt(5, 0)},
			wantWAL: []int64{1, 2, 3, 4, 5}, wantDB: []dbKey{{0, 0}, {2, 0}}},
		{name: "delta chain", wal: 8,
			db: []DBObjectInfo{dump(0, 0), ckpt(1, 0), delta(2, dump(0, 0)), ckpt(3, 0),
				delta(4, delta(2, dump(0, 0))), ckpt(6, 0)},
			wantWAL: []int64{1, 2, 3, 4, 5, 6}, wantDB: []dbKey{{1, 0}, {3, 0}}},
		{name: "delta chain folded", wal: 8,
			db:      []DBObjectInfo{dump(0, 0), ckpt(1, 0), delta(2, dump(0, 0)), ckpt(3, 0), dump(5, 0), ckpt(7, 0)},
			wantWAL: []int64{1, 2, 3, 4, 5, 6, 7}, wantDB: []dbKey{{0, 0}, {1, 0}, {2, 0}, {3, 0}}},
		// X6 is rooted on D0's chain, not on D4's, so recovery takes D4 and
		// replays WAL 5–8: X6 is superseded, WAL 5 and 6 are not.
		{name: "delta off the newest dump's chain", wal: 8,
			db:      []DBObjectInfo{dump(0, 0), delta(2, dump(0, 0)), dump(4, 0), delta(6, delta(2, dump(0, 0)))},
			wantWAL: []int64{1, 2, 3, 4}, wantDB: []dbKey{{0, 0}, {2, 0}, {6, 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			at := time.Unix(100, 0)
			v := NewCloudView()
			var listing []cloud.ObjectInfo
			for ts := int64(1); ts <= tc.wal; ts++ {
				w := WALObjectInfo{Ts: ts, Filename: "seg", Offset: ts * 8192, Size: 10}
				v.AddWAL(w)
				listing = append(listing, cloud.ObjectInfo{Name: w.Name(), Size: w.Size})
			}
			var live int64
			for _, d := range tc.db {
				if err := v.AddDB(d); err != nil {
					t.Fatal(err)
				}
				listing = append(listing, cloud.ObjectInfo{Name: d.PartNames()[0], Size: d.Size})
				live += d.Size
			}
			v.supersede(at)
			wantWAL := map[int64]time.Time{}
			for _, ts := range tc.wantWAL {
				wantWAL[ts] = at
			}
			wantDB := map[dbKey]time.Time{}
			for _, k := range tc.wantDB {
				wantDB[k] = at
				live -= v.db[k].Size
			}
			if !reflect.DeepEqual(v.walRetired, wantWAL) || !reflect.DeepEqual(v.dbRetired, wantDB) {
				t.Fatalf("stamped WAL %v, DB %v; want %v, %v", v.walRetired, v.dbRetired, wantWAL, wantDB)
			}
			if got := v.TotalDBSize(); got != live {
				t.Fatalf("TotalDBSize = %d, want %d without the stamped objects", got, live)
			}

			r := NewCloudView()
			if err := r.LoadFromList(listing); err != nil {
				t.Fatal(err)
			}
			r.supersede(at)
			if !reflect.DeepEqual(r.walRetired, v.walRetired) || !reflect.DeepEqual(r.dbRetired, v.dbRetired) ||
				r.TotalDBSize() != v.TotalDBSize() || !reflect.DeepEqual(r.DBObjects(), v.DBObjects()) ||
				!reflect.DeepEqual(r.WALObjects(), v.WALObjects()) {
				t.Fatalf("reloaded view stamps WAL %v, DB %v, sizes %d; live %v, %v, %d",
					r.walRetired, r.dbRetired, r.TotalDBSize(), v.walRetired, v.dbRetired, v.TotalDBSize())
			}
		})
	}
}

// TestCloudViewExpiredOrder: the first stamp wins, the window closes per
// stamp, and a sweep (and the RetainObjects cap) takes the stamped objects
// oldest stamp first — per stamp WAL by ts, then DB by (ts, gen).
func TestCloudViewExpiredOrder(t *testing.T) {
	v := NewCloudView()
	t0 := time.Unix(100, 0)
	t1 := t0.Add(time.Second)
	wal := func(ts int64) WALObjectInfo { return WALObjectInfo{Ts: ts, Filename: "seg", Offset: ts} }
	add := func(d DBObjectInfo) {
		if err := v.AddDB(d); err != nil {
			t.Fatal(err)
		}
	}
	// Landing 1, a checkpoint at ts 2: WAL 1 and 2 stamped at t0.
	add(DBObjectInfo{Ts: 0, Type: Dump, Size: 1000})
	for ts := int64(1); ts <= 3; ts++ {
		v.AddWAL(wal(ts))
	}
	add(DBObjectInfo{Ts: 2, Type: Checkpoint, Size: 100})
	v.supersede(t0)
	// Landing 2, a dump at ts 4: WAL 3 and 4 and both older DB objects
	// stamped at t1; WAL 1 and 2 keep t0.
	v.AddWAL(wal(4))
	v.AddWAL(wal(5))
	add(DBObjectInfo{Ts: 4, Type: Dump, Size: 1000})
	v.supersede(t1)
	if got := v.TotalDBSize(); got != 1000 {
		t.Fatalf("TotalDBSize = %d, want the new dump's 1000", got)
	}
	names := func(victims []gcVictim) []string {
		var out []string
		for _, vc := range victims {
			out = append(out, vc.names[0])
		}
		return out
	}
	ckpt2 := DBObjectInfo{Ts: 2, Type: Checkpoint, Size: 100}.PartNames()[0]
	dump0 := DBObjectInfo{Ts: 0, Type: Dump, Size: 1000}.PartNames()[0]
	for _, tc := range []struct {
		name string
		now  time.Time
		cap  int
		want []string
	}{
		{"window open", t0, 100, nil},
		{"first stamps closed", t1, 100, []string{wal(1).Name(), wal(2).Name()}},
		{"all closed", t1.Add(time.Second), 100,
			[]string{wal(1).Name(), wal(2).Name(), wal(3).Name(), wal(4).Name(), dump0, ckpt2}},
		{"cap", t0, 1, []string{wal(1).Name(), wal(2).Name(), wal(3).Name(), wal(4).Name(), dump0}},
	} {
		if got := names(v.expired(tc.now, time.Second, tc.cap)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: expired = %v, want %v", tc.name, got, tc.want)
		}
	}
}
