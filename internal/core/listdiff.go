package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/ginja-dr/ginja/internal/cloud"
)

// listTracker is the one piece of code that turns cloud LISTs into
// complete objects. Each observe call diffs a listing against everything
// seen before and reports only the WAL objects and *complete* DB objects
// that appeared since the last call. CloudView.LoadFromList feeds a fresh
// tracker a single round and orphans whatever it leaves unresolved; the
// warm-standby Follower feeds one tracker every poll and simply waits.
//
// The tracker is tolerant of read-after-write list lag: a name counts
// once, first sight wins, and it is never un-seen when a later listing
// omits it (eventual-consistency flapping must not re-emit or stall a
// group); a group that is incomplete in this listing waits for a later
// one. Names that disappear because the primary garbage-collected them
// stay seen — the follower applied them (or the checkpoint that
// superseded them) already, so forgetting them could only cause
// re-emission. Memory therefore grows with the number of objects ever
// listed, which the primary's retention cap (Params.RetainObjects)
// bounds in steady state.
type listTracker struct {
	walSeen map[int64]struct{} // WAL objects are unique per timestamp
	dbSeen  map[string]struct{}

	// groups holds every DB group ever opened, emitted or not; splits
	// indexes the split ones by slot so later parts find their group.
	groups []*dbGroup
	splits map[dbKey]*dbGroup

	emitted map[dbKey]*dbGroup // the complete object reported per (ts, gen)

	// pending holds complete Delta objects whose chain predecessor has not
	// been emitted yet, keyed by the base they wait for: a delta is only
	// useful on top of its base, so no consumer may see it first. When the
	// base emits, every waiter cascades (a waiter may itself be some later
	// delta's base). A delta whose base never appears can only be the
	// residue of garbage collection that ran after a newer fold dump
	// became durable (the delta's uploader deletes nothing until its own
	// object is complete), so leaving it unresolved — forever, for a
	// follower; as an orphan, for LoadFromList — is always safe: the fold
	// dump already carries its state.
	pending map[dbKey][]*dbGroup
}

// dbGroup is the listing state of one candidate DB object: the single name
// of an unsplit object, or the ".s<part>" names sharing a (ts, gen) slot.
// An unsplit name declares the whole object, so differently-sized
// claimants of one slot are separate groups and a truncated one never
// vetoes a complete one; a part's name declares only that part's sealed
// size, so split parts can only group by slot, and identity conflicts show
// up as mixed types/bases or duplicate indices instead.
type dbGroup struct {
	// info carries the identity taken from the first listed name; complete
	// fills in Size and PartSizes.
	info    DBObjectInfo
	split   bool
	mixed   bool // parts disagree on type or base: never complete
	touched bool // gained a part in the current round
	emitted bool
	parts   []listedPart
}

type listedPart struct {
	name     string
	index    int
	declared int64 // sealed size from the name
	listed   int64 // bytes in the cloud listing
	count    int   // > 0 on the final (commit-marker) part
}

// newListTracker returns an empty tracker; sizeHint presizes it for a
// first listing of about that many names.
func newListTracker(sizeHint int) *listTracker {
	return &listTracker{
		walSeen: make(map[int64]struct{}, sizeHint),
		dbSeen:  make(map[string]struct{}),
		splits:  make(map[dbKey]*dbGroup),
		emitted: make(map[dbKey]*dbGroup),
		pending: make(map[dbKey][]*dbGroup),
	}
}

// observe ingests one cloud listing and returns, in no particular order,
// the WAL objects and complete DB objects that became known with it, each
// emitted exactly once across the tracker's lifetime. A foreign or
// malformed object name is an error — a stranger in the bucket is a
// configuration problem worth surfacing, not skipping silently — and so is
// a second complete object claiming an already-emitted (ts, gen) slot with
// a different identity, or a new part joining an already-emitted group:
// both are genuine corruption.
func (t *listTracker) observe(infos []cloud.ObjectInfo) (wal []WALObjectInfo, db []DBObjectInfo, err error) {
	// Re-listed names are the bulk of every round but the first, so what
	// can be new is about the listing minus everything already seen.
	if fresh := len(infos) - len(t.walSeen) - len(t.dbSeen); fresh > 0 {
		wal = make([]WALObjectInfo, 0, fresh)
	}
	var touched []*dbGroup // split groups that gained a part this round
	for _, info := range infos {
		switch {
		case strings.HasPrefix(info.Name, walPrefix):
			ts, filename, offset, perr := ParseWALObjectName(info.Name)
			if perr != nil {
				return nil, nil, perr
			}
			if _, ok := t.walSeen[ts]; ok {
				continue
			}
			t.walSeen[ts] = struct{}{}
			wal = append(wal, WALObjectInfo{Ts: ts, Filename: filename, Offset: offset, Size: info.Size})
		case strings.HasPrefix(info.Name, dbPrefix):
			if _, ok := t.dbSeen[info.Name]; ok {
				continue
			}
			n, perr := ParseDBObjectName(info.Name)
			if perr != nil {
				return nil, nil, perr
			}
			t.dbSeen[info.Name] = struct{}{}
			ident := DBObjectInfo{Ts: n.Ts, Gen: n.Gen, Type: n.Type, BaseTs: n.BaseTs, BaseGen: n.BaseGen}
			part := listedPart{name: info.Name, index: n.Part, declared: n.Size, listed: info.Size, count: n.Count}
			if n.Part < 0 {
				g := &dbGroup{info: ident, parts: []listedPart{part}}
				t.groups = append(t.groups, g)
				if err := t.emitIfComplete(g, &db); err != nil {
					return nil, nil, err
				}
				continue
			}
			k := dbKey{ts: n.Ts, gen: n.Gen}
			g := t.splits[k]
			if g == nil {
				g = &dbGroup{info: ident, split: true}
				t.splits[k] = g
				t.groups = append(t.groups, g)
			}
			if g.emitted {
				return nil, nil, fmt.Errorf(
					"core: conflicting DB objects at ts=%d gen=%d: %s joins an already complete object",
					n.Ts, n.Gen, info.Name)
			}
			if ident.Type != g.info.Type || ident.BaseTs != g.info.BaseTs || ident.BaseGen != g.info.BaseGen {
				g.mixed = true
			}
			if !g.touched {
				g.touched = true
				touched = append(touched, g)
			}
			g.parts = append(g.parts, part)
		default:
			return nil, nil, fmt.Errorf("core: unrecognised object %q in cloud listing", info.Name)
		}
	}
	for _, g := range touched {
		g.touched = false
		if err := t.emitIfComplete(g, &db); err != nil {
			return nil, nil, err
		}
	}
	return wal, db, nil
}

// unresolved returns every DB group the tracker has seen but not emitted:
// incomplete or invalid part sets, deltas still waiting for a base, and
// deltas whose linkage is broken.
func (t *listTracker) unresolved() []*dbGroup {
	var out []*dbGroup
	for _, g := range t.groups {
		if !g.emitted {
			out = append(out, g)
		}
	}
	return out
}

// emitIfComplete reports g through out once it is complete and, for a
// delta, once its chain predecessor has been reported; emitting g then
// releases the deltas waiting on it (re-checked, because a waiter may have
// gained a contradicting part since it queued).
func (t *listTracker) emitIfComplete(g *dbGroup, out *[]DBObjectInfo) error {
	if !g.complete() {
		return nil
	}
	k := dbKey{ts: g.info.Ts, gen: g.info.Gen}
	if prev, ok := t.emitted[k]; ok {
		return prev.info.conflictsWith(g.info)
	}
	if g.info.Type == Delta {
		bk := dbKey{ts: g.info.BaseTs, gen: g.info.BaseGen}
		base, ok := t.emitted[bk]
		if !ok {
			t.pending[bk] = append(t.pending[bk], g)
			return nil
		}
		// The chain rule: a delta's base must be a chain element — a dump
		// or another delta — strictly older than it (which also makes
		// pointer loops impossible). Anything else is broken linkage,
		// never valid later, and the delta stays unresolved.
		if base.info.Type == Checkpoint || !base.info.Before(g.info) {
			return nil
		}
	}
	g.emitted = true
	t.emitted[k] = g
	*out = append(*out, g.info)
	waiters := t.pending[k]
	delete(t.pending, k)
	for _, w := range waiters {
		if err := t.emitIfComplete(w, out); err != nil {
			return err
		}
	}
	return nil
}

// complete reports whether every byte of the object is listed, filling in
// g.info.Size (and PartSizes for a split object) when it is. An unsplit
// object is complete when its stored bytes match its declared size. A
// split set needs exactly one commit marker (".n<count>" on the final
// part), indices contiguous 0..count-1, and every part's stored bytes
// matching its name-declared sealed size. The final part is PUT only by
// the worker that drew the last index, but parts upload concurrently — the
// marker's presence proves every sibling was handed to the pool, not that
// every PUT landed, hence the per-index checks.
func (g *dbGroup) complete() bool {
	if !g.split {
		p := g.parts[0]
		g.info.Size = p.declared
		return p.listed == p.declared
	}
	count, markers := 0, 0
	for _, p := range g.parts {
		if p.count > 0 {
			markers++
			count = p.count
		}
	}
	if g.mixed || markers != 1 || len(g.parts) != count {
		return false
	}
	sort.Slice(g.parts, func(i, j int) bool { return g.parts[i].index < g.parts[j].index })
	sizes := make([]int64, count)
	var total int64
	for i, p := range g.parts {
		if p.index != i || p.listed != p.declared {
			return false
		}
		sizes[i] = p.declared
		total += p.declared
	}
	g.info.Size, g.info.PartSizes = total, sizes
	return true
}
