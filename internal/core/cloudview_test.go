package core

import (
	"sync"
	"testing"

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
