package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
)

// WALObjectInfo describes one WAL object Ginja knows to be in the cloud.
type WALObjectInfo struct {
	Ts       int64
	Filename string
	Offset   int64
	Size     int64
}

// Name returns the cloud object key.
func (w WALObjectInfo) Name() string { return WALObjectName(w.Ts, w.Filename, w.Offset) }

// DBObjectInfo describes one DB object (all its parts) in the cloud.
// (Ts, Gen) totally orders DB objects: Ts is the WAL timestamp captured at
// checkpoint begin and Gen disambiguates objects sharing a Ts.
type DBObjectInfo struct {
	Ts   int64
	Gen  int
	Type DBObjectType
	// Size is the object's total sealed size.
	Size int64
	// PartSizes holds the per-part sealed sizes of an object split at the
	// maximum object size; nil means a single unsplit object.
	PartSizes []int64
	// BaseTs/BaseGen identify the chain predecessor of a Delta object
	// (meaningful only when Type is Delta). The base is part of the
	// object's identity: parts naming different bases can never merge into
	// one record.
	BaseTs  int64
	BaseGen int
}

// Before orders DB objects by (Ts, Gen).
func (d DBObjectInfo) Before(o DBObjectInfo) bool {
	if d.Ts != o.Ts {
		return d.Ts < o.Ts
	}
	return d.Gen < o.Gen
}

// conflictsWith returns an error if d and o, two complete objects claiming
// the same (Ts, Gen) slot, are not the same object: identity is the type,
// the total sealed size and the base.
func (d DBObjectInfo) conflictsWith(o DBObjectInfo) error {
	if d.Size == o.Size && d.Type == o.Type && d.BaseTs == o.BaseTs && d.BaseGen == o.BaseGen {
		return nil
	}
	return fmt.Errorf(
		"core: conflicting DB objects at ts=%d gen=%d: have %s size=%d base=%d-%d, got %s size=%d base=%d-%d",
		d.Ts, d.Gen, d.Type, d.Size, d.BaseTs, d.BaseGen, o.Type, o.Size, o.BaseTs, o.BaseGen)
}

// name builds the DBName for one part (part < 0: the unsplit whole) of
// this object, carrying the base linkage when the object is a delta.
func (d DBObjectInfo) name(size int64, part, count int) DBName {
	return DBName{Ts: d.Ts, Gen: d.Gen, Type: d.Type, Size: size,
		Part: part, Count: count,
		BaseTs: d.BaseTs, BaseGen: d.BaseGen, HasBase: d.Type == Delta}
}

// PartNames returns the cloud keys holding this object's payload, in order.
func (d DBObjectInfo) PartNames() []string {
	if d.PartSizes == nil {
		return []string{d.name(d.Size, -1, 0).String()}
	}
	names := make([]string, len(d.PartSizes))
	for i, size := range d.PartSizes {
		count := 0
		if i == len(names)-1 {
			count = len(names)
		}
		names[i] = d.name(size, i, count).String()
	}
	return names
}

type dbKey struct {
	ts  int64
	gen int
}

// OrphanPart is one cloud object recorded by LoadFromList as belonging to
// an incomplete DB object — the leftover of an upload interrupted mid-way
// by a crash or outage. Orphans never enter the view proper (recovery
// ignores them), but they are remembered for two reasons: NextDBGen must
// never re-issue an orphaned generation (a reuse would let a fresh
// object share its (ts, gen) slot with orphan parts of a different size),
// and the next chain element's garbage collection deletes them by name.
// An upload a crossing superseded records its parts the same way.
type OrphanPart struct {
	Name string
	Ts   int64
	Gen  int
}

// CloudView is Ginja's local bookkeeping of the objects currently in the
// cloud (Algorithm 1 line 1). It also owns the WAL timestamp counter that
// totally orders uploads, the generations handed out to DB objects not yet
// landed, and the garbage-collection rule (supersede): which objects are
// superseded, since when, and so which ones a sweep may delete.
type CloudView struct {
	mu     sync.Mutex
	wal    map[int64]WALObjectInfo
	db     map[dbKey]*DBObjectInfo
	nextTs int64
	dbSize int64
	epoch  int64 // cuts so far (see cut)

	// walRetired and dbRetired hold, for each object the GC rule
	// (supersede) found superseded, the instant it first did: the start of
	// its point-in-time retention window (Params.RetainFor). A stamped object stays listed
	// (RecoverAt needs it) until a sweep deletes it; a stamped DB object
	// leaves the 150 %-rule size accounting at once, since retained history
	// is not live cloud state.
	walRetired map[int64]time.Time
	dbRetired  map[dbKey]time.Time

	// orphans holds the parts of incomplete DB objects found by
	// LoadFromList, keyed by object name, until GC deletes them.
	orphans map[string]OrphanPart
	// orphanGen is the per-ts generation floor imposed by orphans: the
	// next generation NextDBGen may hand out for that ts, so orphaned
	// generations are never reused even though they are not in db.
	orphanGen map[int64]int
	// reserved is the highest generation per ts handed out to a DB object
	// that has not landed yet (reserveDBGen): the entry goes when the object
	// lands or is abandoned, so the map holds at most the queued objects.
	reserved map[int64]int
}

// NewCloudView returns an empty view. The WAL timestamp counter starts at
// 1: timestamp 0 is reserved for the Boot dump so that recovery's
// "WAL objects newer than the last DB object" rule also covers the boot
// segments (see Boot).
func NewCloudView() *CloudView {
	v := &CloudView{}
	v.reset(0)
	return v
}

// reset empties the view, sizing it for about walHint WAL objects.
func (v *CloudView) reset(walHint int) {
	v.wal = make(map[int64]WALObjectInfo, walHint)
	v.db = make(map[dbKey]*DBObjectInfo)
	v.walRetired = make(map[int64]time.Time)
	v.dbRetired = make(map[dbKey]time.Time)
	v.orphans = make(map[string]OrphanPart)
	v.orphanGen = make(map[int64]int)
	v.reserved = make(map[int64]int)
	v.nextTs = 1
	v.dbSize = 0
}

// NextWALTs allocates the next WAL timestamp.
func (v *CloudView) NextWALTs() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	ts := v.nextTs
	v.nextTs++
	return ts
}

// allocWALTs allocates n consecutive WAL timestamps and returns the first
// with the current epoch: a batch lies wholly on one side of every cut.
func (v *CloudView) allocWALTs(n int) (first, epoch int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.nextTs += int64(n)
	return v.nextTs - int64(n), v.epoch
}

// cut returns the ts of a DB object captured now, the last WAL ts
// allocated, and starts a new epoch (walShadows).
func (v *CloudView) cut() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.epoch++
	return v.nextTs - 1
}

// LastWALTs returns the most recently allocated WAL timestamp (0 if none).
func (v *CloudView) LastWALTs() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.nextTs - 1
}

// NextDBGen returns the next free generation number for DB objects with
// timestamp ts. Generations consumed by orphans (incomplete objects found
// in the cloud listing) or reserved for objects still uploading count as
// taken: reusing one would let a fresh object's parts coexist in the
// bucket with other parts of a different size under the same (ts, gen).
func (v *CloudView) NextDBGen(ts int64) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.nextDBGenLocked(ts)
}

func (v *CloudView) nextDBGenLocked(ts int64) int {
	gen := v.orphanGen[ts]
	for k := range v.db {
		if k.ts == ts && k.gen >= gen {
			gen = k.gen + 1
		}
	}
	if g, ok := v.reserved[ts]; ok && g >= gen {
		gen = g + 1
	}
	return gen
}

// reserveDBGen hands out the next free generation for a DB object about to
// queue for upload at ts, and holds it until AddDB records the object or
// abandon drops it.
func (v *CloudView) reserveDBGen(ts int64) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	gen := v.nextDBGenLocked(ts)
	v.reserved[ts] = gen
	return gen
}

// AddWAL records a WAL object as present in the cloud.
func (v *CloudView) AddWAL(info WALObjectInfo) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.addWAL(info)
}

func (v *CloudView) addWAL(info WALObjectInfo) {
	v.wal[info.Ts] = info
	if info.Ts >= v.nextTs {
		v.nextTs = info.Ts + 1
	}
}

// AddDB records a complete DB object. Re-adding an existing (Ts, Gen) is
// only legal for the same object — identical Size, Type and base; a
// mismatch means two distinct objects claim the same slot (a generation
// collision) and is reported. The object's generation reservation, if any,
// goes: NextDBGen sees the slot in db now.
func (v *CloudView) AddDB(info DBObjectInfo) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.reserved[info.Ts]; ok && g <= info.Gen {
		delete(v.reserved, info.Ts)
	}
	return v.addDB(info)
}

func (v *CloudView) addDB(info DBObjectInfo) error {
	key := dbKey{ts: info.Ts, gen: info.Gen}
	if existing, ok := v.db[key]; ok {
		return existing.conflictsWith(info)
	}
	v.db[key] = &info
	v.dbSize += info.Size
	if info.Ts >= v.nextTs {
		v.nextTs = info.Ts + 1
	}
	return nil
}

// DeleteWAL forgets a WAL object (after its cloud DELETE).
func (v *CloudView) DeleteWAL(ts int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.wal, ts)
	delete(v.walRetired, ts)
}

// DeleteDB forgets a DB object (after its cloud DELETEs).
func (v *CloudView) DeleteDB(ts int64, gen int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	key := dbKey{ts: ts, gen: gen}
	if d, ok := v.db[key]; ok {
		if _, retired := v.dbRetired[key]; !retired {
			v.dbSize -= d.Size
		}
		delete(v.db, key)
		delete(v.dbRetired, key)
	}
}

// supersede applies the garbage-collection rule (Algorithm 3 lines 23–29)
// to everything the view holds, and stamps what it newly finds superseded
// with now: every DB object the view's live set, live(-1), leaves out, and
// the WAL objects up to that set's newest DB object. Along a chain that is
// every checkpoint older than the newest chain element, which recaptured
// the ranges they dirtied. With no dump listed nothing is superseded. An
// object found again keeps its first stamp: its window must not restart.
// The checkpointer calls it after each landing, Ginja.start after every
// start-up load (so a restarted instance trims the history it lists), and
// a Follower before it drops what is stamped from its view.
func (v *CloudView) supersede(now time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	dbs := v.dbObjects()
	keep, _, err := live(dbs, nil, -1)
	if err != nil {
		return
	}
	for ts := range v.wal {
		if _, ok := v.walRetired[ts]; ts <= keep[len(keep)-1].Ts && !ok {
			v.walRetired[ts] = now
		}
	}
	for _, d := range dbs {
		key := dbKey{ts: d.Ts, gen: d.Gen}
		if len(keep) > 0 && keep[0].Ts == d.Ts && keep[0].Gen == d.Gen {
			keep = keep[1:]
		} else if _, ok := v.dbRetired[key]; !ok {
			v.dbRetired[key] = now
			v.dbSize -= d.Size
		}
	}
}

// gcVictim is one superseded cloud object: a WAL object, or a DB object
// with all its parts.
type gcVictim struct {
	names []string      // cloud keys; names[0] identifies the object
	walTs int64         // the WAL object's timestamp (db == nil)
	db    *DBObjectInfo // nil for a WAL object
}

// expired lists the stamped objects a sweep at now deletes: those whose
// retainFor window has closed, plus, BtrLog-style, the oldest-stamped ones
// beyond the retainObjects cap even if their window is still open. The
// list is in stamping order: by stamp, and per stamp WAL by ts, then DB
// by (ts, gen).
func (v *CloudView) expired(now time.Time, retainFor time.Duration, retainObjects int) []gcVictim {
	v.mu.Lock()
	defer v.mu.Unlock()
	type stamp struct {
		at   time.Time
		kind int // 0 WAL, 1 DB: a landing stamps its WAL victims first
		key  dbKey
	}
	all := make([]stamp, 0, len(v.walRetired)+len(v.dbRetired))
	for ts, at := range v.walRetired {
		all = append(all, stamp{at, 0, dbKey{ts: ts}})
	}
	for key, at := range v.dbRetired {
		all = append(all, stamp{at, 1, key})
	}
	slices.SortFunc(all, func(a, b stamp) int {
		return cmp.Or(a.at.Compare(b.at), cmp.Compare(a.kind, b.kind),
			cmp.Compare(a.key.ts, b.key.ts), cmp.Compare(a.key.gen, b.key.gen))
	})
	overflow := len(all) - retainObjects
	var victims []gcVictim
	for i, s := range all {
		switch {
		case i >= overflow && now.Before(s.at.Add(retainFor)):
		case s.kind == 0:
			victims = append(victims, gcVictim{names: []string{v.wal[s.key.ts].Name()}, walTs: s.key.ts})
		default:
			d := *v.db[s.key]
			victims = append(victims, gcVictim{names: d.PartNames(), db: &d})
		}
	}
	return victims
}

// TotalDBSize returns the summed payload size of all DB objects — the
// quantity compared against 150 % of the local database size to decide
// between an incremental checkpoint and a new dump (Algorithm 3 line 9).
func (v *CloudView) TotalDBSize() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.dbSize
}

// WALObjects returns the known WAL objects sorted by timestamp.
func (v *CloudView) WALObjects() []WALObjectInfo {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]WALObjectInfo, 0, len(v.wal))
	for _, w := range v.wal {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	return out
}

// DBObjects returns the known DB objects sorted by (Ts, Gen).
func (v *CloudView) DBObjects() []DBObjectInfo {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.dbObjects()
}

func (v *CloudView) dbObjects() []DBObjectInfo {
	out := make([]DBObjectInfo, 0, len(v.db))
	for _, d := range v.db {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// OrphanParts returns the orphan parts recorded by the last LoadFromList
// that have not been garbage-collected yet, sorted by name.
func (v *CloudView) OrphanParts() []OrphanPart {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]OrphanPart, 0, len(v.orphans))
	for _, o := range v.orphans {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DropOrphan forgets one orphan part after its cloud DELETE. The
// generation floor for its ts is kept: the name is gone, but never
// re-issuing an orphaned generation is cheap insurance against a sweep
// that deleted only some of an orphan set before being interrupted.
func (v *CloudView) DropOrphan(name string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.orphans, name)
}

// abandon records the parts this process's abandoned upload of (ts, gen)
// tried as orphans, as LoadFromList would (any of them may exist), and
// drops the object's generation reservation.
func (v *CloudView) abandon(ts int64, gen int, tried []string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, name := range tried {
		v.addOrphan(ts, gen, name)
	}
	if v.reserved[ts] == gen {
		delete(v.reserved, ts)
	}
}

func (v *CloudView) addOrphan(ts int64, gen int, name string) {
	v.orphans[name] = OrphanPart{Name: name, Ts: ts, Gen: gen}
	v.orphanGen[ts] = max(v.orphanGen[ts], gen+1)
}

// LoadFromList rebuilds the view from a cloud listing (Reboot and Recovery
// modes, Algorithm 1 lines 19–26): one listTracker round decides which
// objects are complete, and those enter the view. Foreign or malformed
// object names are reported as an error.
//
// Everything the round leaves unresolved — part sets an upload interrupted
// mid-way never finished (the local view never learned about them, so
// recovery must not either), invalid sets, deltas stranded without a
// rooted chain — is recorded as orphans: NextDBGen never re-issues their
// generation, and the next chain element's garbage collection deletes them
// from the bucket by name (checkpointer.upload).
func (v *CloudView) LoadFromList(infos []cloud.ObjectInfo) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.reset(len(infos))

	t := newListTracker(len(infos))
	wal, db, err := t.observe(infos)
	if err != nil {
		return err
	}
	for _, w := range wal {
		v.addWAL(w)
	}
	for _, d := range db {
		if err := v.addDB(d); err != nil {
			return err
		}
	}
	for _, g := range t.unresolved() {
		ts := g.info.Ts
		for _, p := range g.parts {
			v.addOrphan(ts, g.info.Gen, p.name)
		}
		// The orphan's ts proves a WAL timestamp at least that high was
		// once allocated; never re-issue it.
		if ts >= v.nextTs {
			v.nextTs = ts + 1
		}
	}
	return nil
}
