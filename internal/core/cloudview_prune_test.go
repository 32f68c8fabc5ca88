package core

import (
	"testing"

	"github.com/ginja-dr/ginja/internal/cloud"
)

// A crash or outage between concurrent part PUTs leaves some parts of a
// DB object in the bucket but not all. LoadFromList must not surface such
// an object: its indices do not run 0..count-1, so it is pruned and
// recovery falls back to the previous complete object (the
// consistent-prefix invariant).
func TestCloudViewLoadFromListPrunesPartialObjects(t *testing.T) {
	v := NewCloudView()
	infos := []cloud.ObjectInfo{
		{Name: "DB/0_dump_900", Size: 900}, // complete single-part dump
		// Interrupted 3-part dump: part 1 never landed.
		{Name: "DB/7_dump_1000.s0", Size: 1000},
		{Name: "DB/7_dump_1000.s2.n3", Size: 1000},
		{Name: "WAL/1_seg_0", Size: 10},
	}
	if err := v.LoadFromList(infos); err != nil {
		t.Fatal(err)
	}
	db := v.DBObjects()
	if len(db) != 1 || db[0].Ts != 0 {
		t.Fatalf("DBObjects = %+v, want only the complete ts=0 dump", db)
	}
	if got := v.TotalDBSize(); got != 900 {
		t.Fatalf("TotalDBSize = %d, want 900 (partial object must not count)", got)
	}
	if p, _, err := live(v.DBObjects(), v.WALObjects(), -1); err != nil || p[0].Ts != 0 {
		t.Fatalf("plan = %+v, %v; the partial dump must not be eligible", p, err)
	}
	orphans := v.OrphanParts()
	if len(orphans) != 2 {
		t.Fatalf("OrphanParts = %+v, want the two stranded parts recorded for GC", orphans)
	}
	if g := v.NextDBGen(7); g != 1 {
		t.Fatalf("NextDBGen(7) = %d, want 1: the orphaned generation must not be reused", g)
	}
}

// A fresh upload can land at the same (ts, gen) as the orphan of an
// interrupted one (a restart before the orphan-generation floor existed,
// or a half-swept bucket). An unsplit name declares its whole object, so
// the two have different identities; the complete object — unsplit or
// split — must survive the load and only the truncated one may be pruned.
// Judging the slot as one unit would prune the fully durable object and
// lose the writes whose superseded WAL was already garbage-collected.
func TestCloudViewLoadFromListSizeCollisionKeepsCompleteObject(t *testing.T) {
	// Orphan of an interrupted 3000-byte dump at (ts=7, gen=0): the PUT
	// was cut short.
	orphan := cloud.ObjectInfo{Name: "DB/7_dump_3000", Size: 1000}
	for name, complete := range map[string][]cloud.ObjectInfo{
		"unsplit": {{Name: "DB/7_dump_2000", Size: 2000}},
		"split":   {{Name: "DB/7_dump_1200.s0", Size: 1200}, {Name: "DB/7_dump_800.s1.n2", Size: 800}},
	} {
		for _, orphanFirst := range []bool{true, false} {
			infos := append([]cloud.ObjectInfo{}, complete...)
			if orphanFirst {
				infos = append([]cloud.ObjectInfo{orphan}, infos...)
			} else {
				infos = append(infos, orphan)
			}
			v := NewCloudView()
			if err := v.LoadFromList(infos); err != nil {
				t.Fatal(err)
			}
			db := v.DBObjects()
			if len(db) != 1 || db[0].Size != 2000 || len(db[0].PartNames()) != len(complete) {
				t.Fatalf("%s: DBObjects = %+v, want only the complete 2000-byte dump", name, db)
			}
			if got := v.TotalDBSize(); got != 2000 {
				t.Fatalf("%s: TotalDBSize = %d, want 2000", name, got)
			}
			orphans := v.OrphanParts()
			if len(orphans) != 1 || orphans[0] != (OrphanPart{Name: orphan.Name, Ts: 7, Gen: 0}) {
				t.Fatalf("%s: OrphanParts = %+v, want the truncated 3000-byte object", name, orphans)
			}
			if g := v.NextDBGen(7); g != 1 {
				t.Fatalf("%s: NextDBGen(7) = %d, want 1", name, g)
			}
		}
	}
}

// DropOrphan forgets swept parts but keeps the generation floor.
func TestCloudViewOrphanGenFloorSurvivesSweep(t *testing.T) {
	v := NewCloudView()
	if err := v.LoadFromList([]cloud.ObjectInfo{
		{Name: "DB/7_dump_1000.s0", Size: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	if len(v.DBObjects()) != 0 {
		t.Fatalf("DBObjects = %+v, want none", v.DBObjects())
	}
	orphans := v.OrphanParts()
	if len(orphans) != 1 {
		t.Fatalf("OrphanParts = %+v, want one", orphans)
	}
	v.DropOrphan(orphans[0].Name)
	if left := v.OrphanParts(); len(left) != 0 {
		t.Fatalf("OrphanParts after drop = %+v, want none", left)
	}
	if g := v.NextDBGen(7); g != 1 {
		t.Fatalf("NextDBGen(7) = %d after sweep, want 1 (floor retained)", g)
	}
}

// Two distinct complete objects claiming the same (ts, gen) — or an AddDB
// with a different size than the recorded object — is a conflict, not a
// merge.
func TestCloudViewAddDBConflict(t *testing.T) {
	v := NewCloudView()
	if err := v.AddDB(DBObjectInfo{Ts: 3, Gen: 0, Type: Checkpoint, Size: 400}); err != nil {
		t.Fatal(err)
	}
	if err := v.AddDB(DBObjectInfo{Ts: 3, Gen: 0, Type: Checkpoint, Size: 400, PartSizes: []int64{150, 250}}); err != nil {
		t.Fatalf("re-adding the same object: %v", err)
	}
	if err := v.AddDB(DBObjectInfo{Ts: 3, Gen: 0, Type: Checkpoint, Size: 500}); err == nil {
		t.Fatal("AddDB with a different size under an existing (ts, gen) must be a conflict")
	}
	if err := v.AddDB(DBObjectInfo{Ts: 3, Gen: 0, Type: Dump, Size: 400}); err == nil {
		t.Fatal("AddDB with a different type under an existing (ts, gen) must be a conflict")
	}
}

func TestCloudViewLoadFromListKeepsCompleteMultiPart(t *testing.T) {
	v := NewCloudView()
	infos := []cloud.ObjectInfo{
		{Name: "DB/7_dump_1000.s0", Size: 1000},
		{Name: "DB/7_dump_1000.s1", Size: 1000},
		{Name: "DB/7_dump_500.s2.n3", Size: 500},
	}
	if err := v.LoadFromList(infos); err != nil {
		t.Fatal(err)
	}
	db := v.DBObjects()
	if len(db) != 1 || len(db[0].PartSizes) != 3 || db[0].Size != 2500 {
		t.Fatalf("DBObjects = %+v, want the complete 3-part object", db)
	}
}

func TestCloudViewLoadFromListPrunesTruncatedSinglePart(t *testing.T) {
	v := NewCloudView()
	// A single-part object whose stored size disagrees with its name
	// (truncated upload) is equally unusable.
	infos := []cloud.ObjectInfo{
		{Name: "DB/3_checkpoint_400", Size: 250},
	}
	if err := v.LoadFromList(infos); err != nil {
		t.Fatal(err)
	}
	if db := v.DBObjects(); len(db) != 0 {
		t.Fatalf("DBObjects = %+v, want truncated object pruned", db)
	}
}
