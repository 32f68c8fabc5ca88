package core

import (
	"testing"

	"github.com/ginja-dr/ginja/internal/cloud"
)

// sealedListing builds the cloud listing of one part-sealed DB object:
// every part's name declares that part's own sealed size, the final part
// carries the ".n<count>" commit marker, and the listed bytes match the
// declared sizes.
func sealedListing(ts int64, gen int, typ DBObjectType, sizes []int64) []cloud.ObjectInfo {
	infos := make([]cloud.ObjectInfo, len(sizes))
	for i, sz := range sizes {
		count := 0
		if i == len(sizes)-1 {
			count = len(sizes)
		}
		infos[i] = cloud.ObjectInfo{Name: DBPartName(ts, gen, typ, sz, i, count), Size: sz}
	}
	return infos
}

func loadView(t *testing.T, infos []cloud.ObjectInfo) *CloudView {
	t.Helper()
	v := NewCloudView()
	if err := v.LoadFromList(infos); err != nil {
		t.Fatalf("LoadFromList: %v", err)
	}
	return v
}

// TestLoadFromListSealedComplete: a complete part-sealed set enters the
// view as one object whose size is the sum of its parts and whose
// PartSizes allow per-part fetch+decode on recovery.
func TestLoadFromListSealedComplete(t *testing.T) {
	sizes := []int64{100, 200, 50}
	v := loadView(t, sealedListing(7, 0, Dump, sizes))
	objs := v.DBObjects()
	if len(objs) != 1 {
		t.Fatalf("DBObjects = %+v, want one", objs)
	}
	d := objs[0]
	if d.Ts != 7 || d.Gen != 0 || d.Type != Dump || d.Size != 350 || len(d.PartSizes) != 3 {
		t.Fatalf("loaded object = %+v", d)
	}
	for i, sz := range sizes {
		if d.PartSizes[i] != sz {
			t.Fatalf("PartSizes = %v, want %v", d.PartSizes, sizes)
		}
	}
	if orphans := v.OrphanParts(); len(orphans) != 0 {
		t.Fatalf("complete set recorded orphans: %+v", orphans)
	}
	// PartNames must reproduce the exact listing so GC and recovery address
	// the same objects the uploader wrote.
	names := d.PartNames()
	for i, info := range sealedListing(7, 0, Dump, sizes) {
		if names[i] != info.Name {
			t.Fatalf("PartNames[%d] = %q, want %q", i, names[i], info.Name)
		}
	}
}

// TestLoadFromListSealedIncomplete: every way a crashed upload can strand
// a partial part-sealed set must keep the object out of the view and
// record its parts as orphans, with the generation slot retired.
func TestLoadFromListSealedIncomplete(t *testing.T) {
	full := func() []cloud.ObjectInfo { return sealedListing(9, 1, Dump, []int64{100, 200, 50}) }
	for _, tc := range []struct {
		name    string
		listing []cloud.ObjectInfo
	}{
		{"missing commit marker", full()[:2]},
		{"missing middle part", []cloud.ObjectInfo{full()[0], full()[2]}},
		{"truncated part bytes", func() []cloud.ObjectInfo {
			l := full()
			l[1].Size-- // listed bytes fall short of the name-declared sealed size
			return l
		}()},
		{"duplicate part index", append(full(),
			cloud.ObjectInfo{Name: DBPartName(9, 1, Dump, 777, 1, 0), Size: 777})},
		{"mixed types on one slot", append(full(),
			cloud.ObjectInfo{Name: DBPartName(9, 1, Checkpoint, 60, 3, 0), Size: 60})},
		{"two commit markers", append(full()[:2],
			cloud.ObjectInfo{Name: DBPartName(9, 1, Dump, 50, 2, 3), Size: 50},
			cloud.ObjectInfo{Name: DBPartName(9, 1, Dump, 60, 3, 4), Size: 60})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := loadView(t, tc.listing)
			if objs := v.DBObjects(); len(objs) != 0 {
				t.Fatalf("incomplete set entered the view: %+v", objs)
			}
			orphans := v.OrphanParts()
			if len(orphans) != len(tc.listing) {
				t.Fatalf("recorded %d orphans, want every listed part (%d): %+v",
					len(orphans), len(tc.listing), orphans)
			}
			// The orphaned generation must never be handed out again while
			// its parts are still in the bucket.
			if gen := v.NextDBGen(9); gen != 2 {
				t.Fatalf("NextDBGen(9) = %d, want 2 (orphan held gen 1)", gen)
			}
		})
	}
}

// TestLoadFromListSealedAndUnsplitCoexist: an unsplit object and a split
// one load side by side, and an incomplete split set must not shadow a
// complete object on a different slot.
func TestLoadFromListSealedAndUnsplitCoexist(t *testing.T) {
	listing := []cloud.ObjectInfo{{Name: DBObjectName(3, 0, Dump, 300), Size: 300}}
	listing = append(listing, sealedListing(7, 0, Checkpoint, []int64{128, 64})...)
	// And a stranded split upload on its own slot.
	listing = append(listing, cloud.ObjectInfo{Name: DBPartName(8, 0, Checkpoint, 99, 0, 0), Size: 99})

	v := loadView(t, listing)
	objs := v.DBObjects()
	if len(objs) != 2 {
		t.Fatalf("DBObjects = %+v, want unsplit dump + split checkpoint", objs)
	}
	var sawUnsplit, sawSplit bool
	for _, d := range objs {
		switch {
		case d.Ts == 3 && d.Type == Dump && d.Size == 300 && d.PartSizes == nil:
			sawUnsplit = true
		case d.Ts == 7 && d.Type == Checkpoint && d.Size == 192 && len(d.PartSizes) == 2:
			sawSplit = true
		}
	}
	if !sawUnsplit || !sawSplit {
		t.Fatalf("unsplit=%v split=%v, objects: %+v", sawUnsplit, sawSplit, objs)
	}
	if orphans := v.OrphanParts(); len(orphans) != 1 {
		t.Fatalf("orphans = %+v, want just the stranded ts-8 part", orphans)
	}
}
