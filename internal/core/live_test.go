package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
)

// livePages is the page count of the abstract model TestLiveWalkExhaustive
// checks live against: WAL object w writes page w % livePages, so pages are
// rewritten and a stale object applied late shows.
const livePages = 3

// pageState holds each page's value, the ts of its last write (0: never
// written, -1: unknown — nothing applied has set it).
type pageState [livePages]int64

// truthAt is the page state after every WAL write up to ts.
func truthAt(ts int64) (s pageState) {
	for w := int64(1); w <= ts; w++ {
		s[w%livePages] = w
	}
	return s
}

// modelApply overlays object i of hist onto s: a dump holds every page, a
// checkpoint the pages dirtied since the previous DB object, a delta the
// pages dirtied since its base — each at its value as of the object's ts.
func modelApply(s *pageState, hist []DBObjectInfo, i int) {
	d := hist[i]
	truth := truthAt(d.Ts)
	from := int64(0) // a first checkpoint: dirtied since ts 0
	switch {
	case d.Type == Dump:
		*s = truth
		return
	case d.Type == Delta:
		from = d.BaseTs
	case i > 0:
		from = hist[i-1].Ts
	}
	for w := from + 1; w <= d.Ts; w++ {
		s[w%livePages] = truth[w%livePages]
	}
}

// planSig renders a plan for failure messages and comparisons.
func planSig(db []DBObjectInfo, run []WALObjectInfo) string {
	var b strings.Builder
	for _, d := range db {
		fmt.Fprintf(&b, "%s%d.%d(b%d) ", d.Type, d.Ts, d.Gen, d.BaseTs)
	}
	b.WriteString("|")
	for _, w := range run {
		fmt.Fprintf(&b, " %d", w.Ts)
	}
	return b.String()
}

// TestLiveWalkExhaustive is the safety net under live, the one chain walk.
// It enumerates every DB history of up to six objects, object i at ts 2i,
// each a dump, a checkpoint, a delta on the previous chain element or a
// delta on an older one, with a WAL object at every ts from 1 to two past
// the last object. On each it checks, against the page model above:
//
//   - for every upTo, applying live(upTo)'s DB objects in order yields the
//     true page state at the plan's newest one, and its WAL run then yields
//     the true state at upTo (the WAL has no gaps); ErrNoDump only when no
//     dump is at or before upTo;
//   - every DB object of the view is either in live(-1) or stamped by
//     supersede, never both, and the WAL is stamped exactly up to the
//     plan's newest DB object;
//   - deleting everything stamped and listing what is left, as a restart
//     or a cold recovery would, plans the same live(-1) and WAL run — a
//     GC that strands a planned delta from its base loses what it carries.
func TestLiveWalkExhaustive(t *testing.T) {
	histories, states := 0, 0
	check := func(hist []DBObjectInfo) {
		histories++
		last := 2 * int64(len(hist)) // WAL 1..last
		var wals []WALObjectInfo
		for ts := int64(1); ts <= last; ts++ {
			wals = append(wals, WALObjectInfo{Ts: ts, Filename: "seg", Offset: ts * 8192, Size: 10})
		}
		for upTo := int64(-1); upTo <= last; upTo++ {
			states++
			bound := upTo
			if upTo < 0 {
				bound = last
			}
			db, run, err := live(hist, wals, upTo)
			if err != nil {
				if !errors.Is(err, ErrNoDump) || slices.ContainsFunc(hist, func(d DBObjectInfo) bool {
					return d.Type == Dump && d.Ts <= bound
				}) {
					t.Fatalf("%s upTo %d: %v", planSig(hist, nil), upTo, err)
				}
				continue
			}
			s := pageState{-1, -1, -1}
			for _, d := range db {
				modelApply(&s, hist, int(d.Ts/2))
			}
			tip := db[len(db)-1].Ts
			if s != truthAt(tip) {
				t.Fatalf("%s upTo %d: live = %s yields %v, want the state at ts %d, %v",
					planSig(hist, nil), upTo, planSig(db, run), s, tip, truthAt(tip))
			}
			for _, w := range run {
				s[w.Ts%livePages] = w.Ts
			}
			if end := tip + int64(len(run)); end != max(tip, bound) || s != truthAt(end) {
				t.Fatalf("%s upTo %d: live = %s ends at ts %d with %v, want ts %d",
					planSig(hist, nil), upTo, planSig(db, run), end, s, max(tip, bound))
			}
		}

		v := NewCloudView()
		for _, w := range wals {
			v.AddWAL(w)
		}
		for _, d := range hist {
			if err := v.AddDB(d); err != nil {
				t.Fatal(err)
			}
		}
		v.supersede(time.Unix(100, 0))
		keep, run, err := live(hist, wals, -1)
		if err != nil {
			if len(v.walRetired)+len(v.dbRetired) != 0 {
				t.Fatalf("%s: no dump, yet supersede stamped WAL %v, DB %v", planSig(hist, nil), v.walRetired, v.dbRetired)
			}
			return
		}
		tip := keep[len(keep)-1].Ts
		planned := map[dbKey]bool{}
		for _, d := range keep {
			planned[dbKey{d.Ts, d.Gen}] = true
		}
		var listing []cloud.ObjectInfo
		for _, d := range hist {
			key := dbKey{d.Ts, d.Gen}
			if _, stamped := v.dbRetired[key]; stamped == planned[key] {
				t.Fatalf("%s: %s%d planned %v, stamped %v", planSig(hist, nil), d.Type, d.Ts, planned[key], stamped)
			} else if !stamped {
				listing = append(listing, cloud.ObjectInfo{Name: d.PartNames()[0], Size: d.Size})
			}
		}
		for _, w := range wals {
			if _, stamped := v.walRetired[w.Ts]; stamped != (w.Ts <= tip) {
				t.Fatalf("%s: WAL %d stamped %v, plan tip %d", planSig(hist, nil), w.Ts, stamped, tip)
			} else if !stamped {
				listing = append(listing, cloud.ObjectInfo{Name: w.Name(), Size: w.Size})
			}
		}
		relisted := NewCloudView()
		if err := relisted.LoadFromList(listing); err != nil {
			t.Fatal(err)
		}
		db2, run2, err := live(relisted.DBObjects(), relisted.WALObjects(), -1)
		if want := planSig(keep, run); err != nil || planSig(db2, run2) != want {
			t.Fatalf("%s: after deleting what is stamped a LIST plans %s, %v; want %s",
				planSig(hist, nil), planSig(db2, run2), err, want)
		}

	}

	// grow extends hist by one object at ts 2·len(hist) in every way, chain
	// listing the indices of its chain elements (dumps and deltas).
	var grow func(hist []DBObjectInfo, chain []int)
	grow = func(hist []DBObjectInfo, chain []int) {
		if len(hist) > 0 {
			check(hist)
		}
		if len(hist) == 6 {
			return
		}
		ts, next := 2*int64(len(hist)), len(hist)
		with := func(d DBObjectInfo) []DBObjectInfo {
			d.Ts, d.Size = ts, 10
			return append(hist[:len(hist):len(hist)], d)
		}
		grow(with(DBObjectInfo{Type: Dump}), append(chain[:len(chain):len(chain)], next))
		grow(with(DBObjectInfo{Type: Checkpoint}), chain)
		for _, b := range chain {
			grow(with(DBObjectInfo{Type: Delta, BaseTs: hist[b].Ts, BaseGen: hist[b].Gen}),
				append(chain[:len(chain):len(chain)], next))
		}
	}
	grow(nil, nil)
	t.Logf("%d histories, %d (history, upTo) states", histories, states)
	if histories != 2371 {
		t.Fatalf("enumerated %d histories, want 2371", histories)
	}
}
