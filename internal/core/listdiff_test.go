package core

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/ginja-dr/ginja/internal/cloud"
)

// TestListTrackerIncremental pins the tracker's contract on a handcrafted
// sequence: emit-once, completion across rounds and tolerance of list-lag
// flapping.
func TestListTrackerIncremental(t *testing.T) {
	tr := newListTracker(0)

	// Round 1: one WAL object, half of a split dump.
	wal, db, err := tr.observe([]cloud.ObjectInfo{
		{Name: "WAL/1_seg_0", Size: 3},
		{Name: "DB/0_dump_3.s0", Size: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) != 1 || wal[0].Ts != 1 {
		t.Fatalf("round 1 wal = %+v", wal)
	}
	if len(db) != 0 {
		t.Fatalf("round 1 emitted incomplete dump: %+v", db)
	}

	// Round 2: the missing part completes the dump; the old names reappear
	// (and one flaps away — omission must not matter); a new WAL lands.
	wal, db, err = tr.observe([]cloud.ObjectInfo{
		{Name: "DB/0_dump_3.s1.n2", Size: 3},
		{Name: "DB/0_dump_3.s0", Size: 3}, // re-listed: must not double-count
		{Name: "WAL/2_seg_0", Size: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) != 1 || wal[0].Ts != 2 {
		t.Fatalf("round 2 wal = %+v", wal)
	}
	if len(db) != 1 || db[0].Ts != 0 || db[0].Size != 6 || len(db[0].PartSizes) != 2 {
		t.Fatalf("round 2 db = %+v, want completed 2-part dump", db)
	}

	// Round 3: everything re-listed plus a split checkpoint arriving
	// marker-first across the round boundary.
	wal, db, err = tr.observe([]cloud.ObjectInfo{
		{Name: "WAL/1_seg_0", Size: 3},
		{Name: "DB/0_dump_3.s0", Size: 3},
		{Name: "DB/0_dump_3.s1.n2", Size: 3},
		{Name: "DB/2_checkpoint_4.g1.s1.n2", Size: 4},
	})
	if err != nil || len(wal) != 0 || len(db) != 0 {
		t.Fatalf("round 3 = %+v, %+v, %v; want nothing new", wal, db, err)
	}
	wal, db, err = tr.observe([]cloud.ObjectInfo{
		{Name: "DB/2_checkpoint_5.g1.s0", Size: 5},
	})
	if err != nil || len(wal) != 0 {
		t.Fatalf("round 4 = %+v, %v", wal, err)
	}
	if len(db) != 1 || db[0].Ts != 2 || db[0].Gen != 1 || db[0].Size != 9 || len(db[0].PartSizes) != 2 {
		t.Fatalf("round 4 db = %+v, want completed split checkpoint", db)
	}
	if left := tr.unresolved(); len(left) != 0 {
		t.Fatalf("unresolved = %+v, want none", left)
	}

	// A part joining an object that already went out contradicts it.
	if _, _, err := tr.observe([]cloud.ObjectInfo{{Name: "DB/0_dump_1.s2", Size: 1}}); err == nil {
		t.Fatal("part joining an emitted object accepted")
	}
}

// TestListingRejectsStrangers: a foreign name, and a name in the retired
// whole-sealed ".p<N>" format, fail both entry points loudly.
func TestListingRejectsStrangers(t *testing.T) {
	for _, name := range []string{"junk", "DB/7_dump_6.p0", "DB/7_dump_6.g2.p1"} {
		infos := []cloud.ObjectInfo{{Name: "DB/0_dump_5", Size: 5}, {Name: name, Size: 3}}
		if _, _, err := newListTracker(0).observe(infos); err == nil {
			t.Errorf("observe accepted %q", name)
		}
		if err := NewCloudView().LoadFromList(infos); err == nil {
			t.Errorf("LoadFromList accepted %q", name)
		}
	}
}

// TestDeltaListedBeforeBase: the same listing anomaly read by the two
// consumers. For LoadFromList the round is all there is, so the stranded
// delta is an orphan; a tracker that sees the base one round later emits
// base and delta together, base first in (Ts, Gen) order.
func TestDeltaListedBeforeBase(t *testing.T) {
	delta := cloud.ObjectInfo{Name: "DB/3_delta_2.b1-0", Size: 2}
	base := cloud.ObjectInfo{Name: "DB/1_dump_6", Size: 6}

	v := NewCloudView()
	if err := v.LoadFromList([]cloud.ObjectInfo{delta}); err != nil {
		t.Fatal(err)
	}
	if db := v.DBObjects(); len(db) != 0 {
		t.Fatalf("DBObjects = %+v, want the baseless delta kept out", db)
	}
	if o := v.OrphanParts(); len(o) != 1 || o[0] != (OrphanPart{Name: delta.Name, Ts: 3}) {
		t.Fatalf("OrphanParts = %+v, want the delta", o)
	}

	tr := newListTracker(0)
	if _, db, err := tr.observe([]cloud.ObjectInfo{delta}); err != nil || len(db) != 0 {
		t.Fatalf("round 1 = %+v, %v; the delta must wait", db, err)
	}
	_, db, err := tr.observe([]cloud.ObjectInfo{delta, base})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(db, func(i, j int) bool { return db[i].Before(db[j]) })
	if len(db) != 2 || db[0].Type != Dump || db[1].Type != Delta || db[1].BaseTs != 1 {
		t.Fatalf("round 2 db = %+v, want dump then delta", db)
	}
}

// listScript parses a fuzz script — "size name" lines, "==" starting a new
// round — into its rounds and their first-sight union. A real bucket lists
// each name once per round with a stable size; the tracker keys on first
// sight, so the union must too.
func listScript(script string) (rounds [][]cloud.ObjectInfo, union []cloud.ObjectInfo) {
	seen := make(map[string]bool)
	var round []cloud.ObjectInfo
	for _, line := range strings.Split(script, "\n") {
		if line == "==" {
			rounds = append(rounds, round)
			round = nil
			continue
		}
		sp := strings.IndexByte(line, ' ')
		if sp <= 0 || sp+1 == len(line) {
			continue
		}
		size, err := strconv.ParseInt(line[:sp], 10, 64)
		if err != nil || size < 0 {
			continue
		}
		info := cloud.ObjectInfo{Name: line[sp+1:], Size: size}
		if !seen[info.Name] {
			seen[info.Name] = true
			union = append(union, info)
		}
		round = append(round, info)
	}
	return append(rounds, round), union
}

// trackerRun feeds rounds through a fresh tracker and collects what it
// emitted, failing on any double emission.
func trackerRun(t *testing.T, rounds [][]cloud.ObjectInfo) (tr *listTracker, walTs map[int64]bool, db map[dbKey]DBObjectInfo, err error) {
	tr = newListTracker(0)
	walTs = make(map[int64]bool)
	db = make(map[dbKey]DBObjectInfo)
	for _, round := range rounds {
		wal, objs, err := tr.observe(round)
		if err != nil {
			return tr, nil, nil, err
		}
		for _, w := range wal {
			if walTs[w.Ts] {
				t.Fatalf("WAL ts=%d emitted twice", w.Ts)
			}
			walTs[w.Ts] = true
		}
		for _, d := range objs {
			k := dbKey{ts: d.Ts, gen: d.Gen}
			if _, dup := db[k]; dup {
				t.Fatalf("DB object ts=%d gen=%d emitted twice", d.Ts, d.Gen)
			}
			d.PartSizes = nil // identity is (type, size, base), not the split
			db[k] = d
		}
	}
	return tr, walTs, db, nil
}

// FuzzListDiff feeds an arbitrary sequence of listings through the
// listTracker twice — round by round, as the warm-standby follower polls,
// and as the first-sight union in a single round, as LoadFromList reads a
// bucket — and requires the two readings to agree: whatever rounds the
// fuzzer invents, the tracker must never panic, never emit one object
// twice, emit the same WAL timestamps and the same (ts, gen) → identity
// set either way, and account for every DB name it saw as part of exactly
// one emitted or unresolved group. (A reading may stop with an error —
// strangers, conflicting objects — but never the union alone.)
func FuzzListDiff(f *testing.F) {
	f.Add("3 WAL/1_seg_0\n==\n4 WAL/2_seg_0")
	f.Add("5 DB/0_dump_5")
	f.Add("3 DB/7_dump_6.p0\n==\n3 DB/7_dump_6.p1\n3 DB/7_dump_6.p0")
	f.Add("4 DB/9_dump_4.g2.s1.n2\n==\n6 DB/9_dump_6.g2.s0")
	f.Add("5 DB/3_checkpoint_5.g10\n==\n5 DB/3_checkpoint_5.g11\n2 WAL/3_seg_8")
	f.Add("1 junk")
	f.Add("9 DB/5_dump_9\n==\n9 DB/5_dump_9.g0\n==\n7 DB/5_checkpoint_7.g1")
	f.Add("4 DB/1_dump_4.s0.n1\n==\n4 DB/1_dump_9.s0.n1")
	// Delta chains: base then delta, delta arriving before its base
	// (must wait and cascade), a two-deep chain delivered tip-first, a
	// truncated chain whose base never lists (waits forever), a delta
	// pointing at a checkpoint-typed base (orphaned), and a delta whose
	// base is not strictly older (broken linkage).
	f.Add("6 DB/1_dump_6\n==\n2 DB/3_delta_2.b1-0")
	f.Add("2 DB/3_delta_2.b1-0\n==\n6 DB/1_dump_6")
	f.Add("1 DB/5_delta_1.b3-0\n2 DB/3_delta_2.b1-0\n==\n6 DB/1_dump_6")
	f.Add("2 DB/9_delta_2.b7-0\n==\n3 WAL/8_seg_0")
	f.Add("4 DB/2_checkpoint_4.g1\n==\n2 DB/5_delta_2.b2-1")
	f.Add("6 DB/4_dump_6\n==\n2 DB/4_delta_2.b4-0")
	f.Add("1 DB/6_delta_1.b1-0.s0.n2\n1 DB/6_delta_1.b1-0.s1\n==\n6 DB/1_dump_6")
	f.Add("6 DB/1_dump_6\n2 DB/3_delta_2.b1-0\n1 DB/4_delta_1.b3-0")
	// Fleet-prefixed names: a tracker inside a PrefixStore never sees
	// these, so reaching the tracker raw they exercise the
	// unrecognised-name (foreign tenant) rejection path — including a
	// round that mixes one tenant's valid names with another's prefixed
	// ones, and a prefix that itself contains "WAL/".
	f.Add("3 tenants/a/WAL/1_seg_0")
	f.Add("5 tenants/a/DB/0_dump_5\n==\n3 tenants/b/WAL/2_seg_0")
	f.Add("3 WAL/1_seg_0\n==\n4 tenants/b/WAL/2_seg_0\n6 DB/1_dump_6")
	f.Add("2 x/WAL/3_seg_0\n==\n2 WAL/3_seg_0")
	// Contradictions arriving late: a stray part joins a split object that
	// already went out (an error for the rounds, merely incomplete for the
	// union), and one joins a complete delta still waiting for its base
	// (which must then not cascade when the base lands).
	f.Add("4 DB/9_dump_4.s1.n2\n6 DB/9_dump_6.s0\n==\n1 DB/9_dump_1.s5")
	f.Add("1 DB/6_delta_1.b1-0.s0\n1 DB/6_delta_1.b1-0.s1.n2\n==\n1 DB/6_delta_1.b1-0.s2\n==\n6 DB/1_dump_6")
	f.Fuzz(func(t *testing.T, script string) {
		rounds, union := listScript(script)
		multi, multiWAL, multiDB, multiErr := trackerRun(t, rounds)
		_, oneWAL, oneDB, oneErr := trackerRun(t, [][]cloud.ObjectInfo{union})
		if multiErr != nil {
			return
		}
		if oneErr != nil {
			t.Fatalf("the union is rejected (%v) but its rounds were accepted", oneErr)
		}
		if !reflect.DeepEqual(multiWAL, oneWAL) {
			t.Fatalf("WAL divergence: rounds %v, union %v", multiWAL, oneWAL)
		}
		if !reflect.DeepEqual(multiDB, oneDB) {
			t.Fatalf("DB divergence:\nrounds: %v\nunion:  %v", multiDB, oneDB)
		}
		// Every DB name belongs to exactly one group, and the emitted
		// groups are exactly the emitted objects.
		grouped := make(map[string]bool)
		emitted := 0
		for _, g := range multi.groups {
			if g.emitted {
				emitted++
			}
			for _, p := range g.parts {
				if grouped[p.name] {
					t.Fatalf("%s sits in two groups", p.name)
				}
				grouped[p.name] = true
			}
		}
		if emitted != len(multiDB) || emitted+len(multi.unresolved()) != len(multi.groups) {
			t.Fatalf("%d groups: %d emitted for %d objects, %d unresolved",
				len(multi.groups), emitted, len(multiDB), len(multi.unresolved()))
		}
		for _, info := range union {
			if strings.HasPrefix(info.Name, dbPrefix) != grouped[info.Name] {
				t.Fatalf("%s: DB name and grouped disagree", info.Name)
			}
		}
	})
}
